// Node-level policies (Algorithm 4 with nodes in place of VMs) and the
// GlobalManager decision loop: grounding, grow/shrink/hold conditions, the
// no-activity guard, Equation 2 renormalization, parse errors, stale
// roll-up rejection, suppression and the clean-decide fast path.
#include "cluster/global_policy.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "cluster/global_manager.hpp"
#include "sim/simulator.hpp"

namespace smartmem::cluster {
namespace {

NodeStats node_stats(NodeId node, PageCount quota, PageCount used,
                     std::uint64_t puts_total, std::uint64_t puts_succ) {
  NodeStats ns;
  ns.node = node;
  ns.seq = 1;
  ns.phys_tmem = 1000;
  ns.quota = quota;
  ns.used = used;
  ns.puts_total = puts_total;
  ns.puts_succ = puts_succ;
  return ns;
}

TEST(GlobalStaticPolicyTest, PinsEveryNodeAtEqualShare) {
  GlobalStaticPolicy policy;
  obs::PolicyAuditScratch audit;
  const std::vector<NodeStats> stats = {
      node_stats(0, kUnlimitedTarget, 900, 100, 50),
      node_stats(1, 123, 0, 0, 0),
      node_stats(2, kUnlimitedTarget, 10, 5, 5),
      node_stats(3, 999, 0, 0, 0),
  };
  const auto out = policy.compute(stats, {4000, &audit});
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].node, stats[i].node);
    EXPECT_EQ(out[i].quota, 1000u);
  }
  ASSERT_EQ(audit.vms.size(), 4u);
  for (const obs::VmVerdict& v : audit.vms) {
    EXPECT_STREQ(v.condition, "gstatic:equal_share");
  }
}

TEST(GlobalSmartPolicyTest, GroundsUnlimitedQuotaToEqualShare) {
  GlobalSmartPolicy policy;  // P = 25%
  obs::PolicyAuditScratch audit;
  // Active node within threshold: hold at the grounded cluster/n share.
  const std::vector<NodeStats> stats = {
      node_stats(0, kUnlimitedTarget, 900, 10, 10),
      node_stats(1, kUnlimitedTarget, 800, 10, 10),
  };
  const auto out = policy.compute(stats, {2000, &audit});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].quota, 1000u);
  EXPECT_EQ(out[1].quota, 1000u);
  EXPECT_STREQ(audit.vms[0].condition, "galg:slack<=threshold");
}

TEST(GlobalSmartPolicyTest, GrowsNodeWithFailedPuts) {
  GlobalSmartPolicy policy(GlobalSmartConfig{10.0});
  obs::PolicyAuditScratch audit;
  const std::vector<NodeStats> stats = {
      node_stats(0, 1000, 990, 100, 60),  // 40 failed puts
      node_stats(1, 1000, 950, 10, 10),
  };
  const auto out = policy.compute(stats, {4000, &audit});
  // grow: 1000 + 10% of 4000 = 1400; sum 2400 < 4000, no renorm.
  EXPECT_EQ(out[0].quota, 1400u);
  EXPECT_EQ(out[1].quota, 1000u);
  EXPECT_STREQ(audit.vms[0].verdict, "grow");
  EXPECT_STREQ(audit.vms[0].condition, "galg:failed_puts>0");
  EXPECT_FALSE(audit.renormalized);
}

TEST(GlobalSmartPolicyTest, ShrinksNodeWithSlackPastThreshold) {
  GlobalSmartPolicy policy(GlobalSmartConfig{10.0});
  obs::PolicyAuditScratch audit;
  // threshold = 10% of 4000 = 400; slack = 1000 - 100 = 900 > 400.
  const std::vector<NodeStats> stats = {
      node_stats(0, 1000, 100, 50, 50),
  };
  const auto out = policy.compute(stats, {4000, &audit});
  EXPECT_EQ(out[0].quota, 900u);  // (100 - 10)% of 1000
  EXPECT_STREQ(audit.vms[0].verdict, "shrink");
  EXPECT_STREQ(audit.vms[0].condition, "galg:slack>threshold");
}

// The warm-up guard: a roll-up with zero traffic carries no evidence, so
// the slack test must not crush a node right before its demand arrives.
TEST(GlobalSmartPolicyTest, HoldsIdleNodeInsteadOfShrinking) {
  GlobalSmartPolicy policy(GlobalSmartConfig{10.0});
  obs::PolicyAuditScratch audit;
  const std::vector<NodeStats> stats = {
      node_stats(0, 1000, 0, 0, 0),  // no puts at all this interval
  };
  const auto out = policy.compute(stats, {4000, &audit});
  EXPECT_EQ(out[0].quota, 1000u);
  EXPECT_STREQ(audit.vms[0].verdict, "hold");
  EXPECT_STREQ(audit.vms[0].condition, "galg:no_activity");
}

TEST(GlobalSmartPolicyTest, RenormalizesWhenGrantsExceedCluster) {
  GlobalSmartPolicy policy(GlobalSmartConfig{50.0});
  obs::PolicyAuditScratch audit;
  // Both nodes fail puts: each grows 1000 -> 1000 + 50% * 2000 = 2000.
  // Sum 4000 > cluster 2000 => Equation 2 scales both down by 0.5.
  const std::vector<NodeStats> stats = {
      node_stats(0, 1000, 1000, 100, 0),
      node_stats(1, 1000, 1000, 100, 0),
  };
  const auto out = policy.compute(stats, {2000, &audit});
  EXPECT_EQ(out[0].quota, 1000u);
  EXPECT_EQ(out[1].quota, 1000u);
  EXPECT_TRUE(audit.renormalized);
  EXPECT_DOUBLE_EQ(audit.renorm_factor, 0.5);
  EXPECT_TRUE(audit.vms[0].renormalized);
  EXPECT_EQ(audit.vms[0].target_after, 1000u);
}

TEST(GlobalSmartPolicyTest, AuditCarriesNodeIds) {
  GlobalSmartPolicy policy;
  obs::PolicyAuditScratch audit;
  const std::vector<NodeStats> stats = {
      node_stats(3, 1000, 900, 10, 10),
      node_stats(7, 1000, 900, 10, 10),
  };
  policy.compute(stats, {2000, &audit});
  ASSERT_EQ(audit.vms.size(), 2u);
  EXPECT_EQ(audit.vms[0].vm, 3u);
  EXPECT_EQ(audit.vms[1].vm, 7u);
}

TEST(GlobalSmartPolicyTest, RejectsBadP) {
  EXPECT_THROW(GlobalSmartPolicy(GlobalSmartConfig{0.0}),
               std::invalid_argument);
  EXPECT_THROW(GlobalSmartPolicy(GlobalSmartConfig{101.0}),
               std::invalid_argument);
  EXPECT_THROW(GlobalSmartPolicy(GlobalSmartConfig{
                   std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_THROW(GlobalSmartPolicy(GlobalSmartConfig{
                   std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
}

TEST(GlobalPolicyParseTest, ParsesKnownSpecs) {
  EXPECT_EQ(parse_global_policy("global-static")->name(), "global-static");
  EXPECT_NE(parse_global_policy("global-smart")->name().find("25.00"),
            std::string::npos);
  EXPECT_NE(parse_global_policy("global-smart:10")->name().find("10.00"),
            std::string::npos);
}

TEST(GlobalPolicyParseTest, UnknownSpecErrorListsCandidates) {
  try {
    parse_global_policy("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    EXPECT_NE(msg.find("global-static"), std::string::npos);
    EXPECT_NE(msg.find("global-smart"), std::string::npos);
  }
  EXPECT_THROW(parse_global_policy("global-smart:abc"),
               std::invalid_argument);
}

// The whole P must be one number in (0, 100]: trailing text once ran as the
// leading number, and a NaN P slipped past the range check.
TEST(GlobalPolicyParseTest, SmartSpecsAreStrict) {
  for (const char* bad :
       {"global-smart:", "global-smart:25abc", "global-smart:nan",
        "global-smart:inf", "global-smart:-inf", "global-smart:0",
        "global-smart:101", "global-smartx", "global-smart:25 "}) {
    EXPECT_THROW(parse_global_policy(bad), std::invalid_argument) << bad;
  }
  EXPECT_NE(parse_global_policy("global-smart:100")->name().find("100.00"),
            std::string::npos);
}

// ---- GlobalManager ---------------------------------------------------------

TEST(GlobalManagerTest, DropsStaleRollupsPerNode) {
  sim::Simulator sim;
  GlobalManager gm(sim, std::make_unique<GlobalStaticPolicy>(), {});
  NodeStats a = node_stats(0, 1000, 10, 5, 5);
  a.seq = 5;
  gm.on_node_stats(a);
  a.seq = 3;  // reordered delivery: older than 5
  gm.on_node_stats(a);
  a.seq = 5;  // duplicate
  gm.on_node_stats(a);
  NodeStats b = node_stats(1, 1000, 10, 5, 5);
  b.seq = 1;  // other node's sequence space is independent
  gm.on_node_stats(b);
  EXPECT_EQ(gm.rollups_seen(), 2u);  // only accepted roll-ups are counted
  EXPECT_EQ(gm.stale_rollups_dropped(), 2u);
  EXPECT_EQ(gm.nodes_seen(), 2u);
}

TEST(GlobalManagerTest, DecideSendsOneQuotaPerNodeAndSuppressesRepeats) {
  sim::Simulator sim;
  GlobalManager gm(sim, std::make_unique<GlobalStaticPolicy>(), {});
  std::vector<NodeQuotaMsg> sent;
  gm.set_sender([&](NodeId, const NodeQuotaMsg& msg) { sent.push_back(msg); });
  gm.on_node_stats(node_stats(0, kUnlimitedTarget, 0, 1, 1));
  gm.on_node_stats(node_stats(1, kUnlimitedTarget, 0, 1, 1));

  gm.decide();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].node, 0u);
  EXPECT_EQ(sent[1].node, 1u);
  EXPECT_EQ(sent[0].quota, sent[1].quota);
  EXPECT_EQ(sent[0].seq, sent[1].seq) << "one decision, one sequence";

  gm.decide();  // identical vector: suppressed
  EXPECT_EQ(sent.size(), 2u);
  EXPECT_EQ(gm.sends_suppressed(), 1u);
  EXPECT_EQ(gm.decisions(), 2u);
  EXPECT_EQ(gm.quotas_sent(), 2u);
}

TEST(GlobalManagerTest, CleanDecideFastPathMatchesAuditedPolicyRuns) {
  // Two GlobalManagers see the same roll-up stream. The audited one runs
  // the policy every round; the unaudited one may skip rounds in which no
  // roll-up payload changed. Both must send the same quotas and count the
  // same decisions and suppressions.
  sim::Simulator sim;
  GlobalManager fast(sim, std::make_unique<GlobalSmartPolicy>(), {});
  GlobalManager full(sim, std::make_unique<GlobalSmartPolicy>(), {});
  obs::AuditLog audit;
  full.attach_obs(nullptr, &audit);

  struct Sent {
    NodeId to;
    NodeQuotaMsg msg;
  };
  std::vector<Sent> fast_sent, full_sent;
  fast.set_sender([&](NodeId to, const NodeQuotaMsg& m) {
    fast_sent.push_back({to, m});
  });
  full.set_sender([&](NodeId to, const NodeQuotaMsg& m) {
    full_sent.push_back({to, m});
  });

  std::vector<NodeStats> nodes = {node_stats(0, kUnlimitedTarget, 400, 0, 0),
                                  node_stats(1, kUnlimitedTarget, 300, 0, 0),
                                  node_stats(2, kUnlimitedTarget, 100, 0, 0)};
  std::uint64_t quiet_rounds = 0;
  for (std::uint64_t round = 1; round <= 60; ++round) {
    bool changed = false;
    // Each node reports the last quota it was granted.
    for (const Sent& s : fast_sent) {
      if (nodes[s.to].quota != s.msg.quota) {
        nodes[s.to].quota = s.msg.quota;
        changed = true;
      }
    }
    if (round % 5 == 0) {
      // A demand burst on one node: failed puts, more usage.
      NodeStats& hot = nodes[(round / 5) % nodes.size()];
      hot.puts_total = 100;
      hot.puts_succ = 60;
      hot.used += 50;
      changed = true;
    } else if (round % 5 == 1 && round > 1) {
      // The burst settles: activity without failures.
      for (NodeStats& ns : nodes) {
        ns.puts_succ = ns.puts_total;
      }
      changed = true;
    }
    if (!changed) ++quiet_rounds;
    for (NodeStats& ns : nodes) {
      ns.seq = round;
      fast.on_node_stats(ns);
      full.on_node_stats(ns);
    }
    fast.decide();
    full.decide();
  }
  ASSERT_GT(quiet_rounds, 0u);

  ASSERT_EQ(fast_sent.size(), full_sent.size());
  for (std::size_t i = 0; i < fast_sent.size(); ++i) {
    EXPECT_EQ(fast_sent[i].to, full_sent[i].to) << "send " << i;
    EXPECT_EQ(fast_sent[i].msg.seq, full_sent[i].msg.seq) << "send " << i;
    EXPECT_EQ(fast_sent[i].msg.node, full_sent[i].msg.node) << "send " << i;
    EXPECT_EQ(fast_sent[i].msg.quota, full_sent[i].msg.quota) << "send " << i;
  }
  EXPECT_EQ(fast.decisions(), full.decisions());
  EXPECT_EQ(fast.sends_suppressed(), full.sends_suppressed());
  EXPECT_GT(fast.sends_suppressed(), 0u);
  EXPECT_GT(fast.clean_decides(), 0u);
  EXPECT_EQ(full.clean_decides(), 0u);
  EXPECT_EQ(audit.size(), full.decisions());
}

TEST(GlobalManagerTest, PeriodicTickDecidesOnInterval) {
  sim::Simulator sim;
  GlobalManagerConfig cfg;
  cfg.interval = 2 * kSecond;
  GlobalManager gm(sim, std::make_unique<GlobalStaticPolicy>(), cfg);
  gm.on_node_stats(node_stats(0, kUnlimitedTarget, 0, 1, 1));
  gm.start();
  sim.run_until(7 * kSecond);
  EXPECT_EQ(gm.decisions(), 3u);  // t = 2, 4, 6
  gm.stop();
  sim.run_until(20 * kSecond);
  EXPECT_EQ(gm.decisions(), 3u);
}

TEST(GlobalManagerTest, RejectsNullPolicyAndBadInterval) {
  sim::Simulator sim;
  EXPECT_THROW(GlobalManager(sim, nullptr, {}), std::invalid_argument);
  GlobalManagerConfig cfg;
  cfg.interval = 0;
  EXPECT_THROW(GlobalManager(sim, std::make_unique<GlobalStaticPolicy>(), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace smartmem::cluster
