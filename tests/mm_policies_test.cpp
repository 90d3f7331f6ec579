// Unit tests for the high-level policies (Algorithms 2-4) and the factory.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "mm/greedy_policy.hpp"
#include "mm/history.hpp"
#include "mm/policy_factory.hpp"
#include "mm/reconf_static_policy.hpp"
#include "mm/smart_policy.hpp"
#include "mm/static_policy.hpp"
#include "mm/swap_rate_policy.hpp"

namespace smartmem::mm {
namespace {

hyper::MemStats make_stats(PageCount total,
                           std::vector<hyper::VmMemStats> vms) {
  hyper::MemStats stats;
  stats.total_tmem = total;
  stats.vm_count = static_cast<std::uint32_t>(vms.size());
  stats.vm = std::move(vms);
  PageCount used = 0;
  for (const auto& vm : stats.vm) used += vm.tmem_used;
  stats.free_tmem = total > used ? total - used : 0;
  return stats;
}

PolicyContext make_ctx(PageCount total, StatsHistory& history) {
  PolicyContext ctx;
  ctx.total_tmem = total;
  ctx.history = &history;
  return ctx;
}

PageCount target_of(const hyper::MmOut& out, VmId vm) {
  for (const auto& t : out) {
    if (t.vm_id == vm) return t.mm_target;
  }
  ADD_FAILURE() << "no target for VM " << vm;
  return 0;
}

TEST(GreedyPolicyTest, EmitsUnlimitedTargets) {
  GreedyPolicy policy;
  StatsHistory history;
  const auto stats = make_stats(300, {{1}, {2}, {3}});
  const auto out = policy.compute(stats, make_ctx(300, history));
  ASSERT_EQ(out.size(), 3u);
  for (const auto& t : out) EXPECT_EQ(t.mm_target, kUnlimitedTarget);
}

// Algorithm 2: mm_target = local_tmem / num_vms for every VM.
TEST(StaticPolicyTest, EqualSplit) {
  StaticPolicy policy;
  StatsHistory history;
  const auto stats = make_stats(300, {{1}, {2}, {3}});
  const auto out = policy.compute(stats, make_ctx(300, history));
  ASSERT_EQ(out.size(), 3u);
  for (const auto& t : out) EXPECT_EQ(t.mm_target, 100u);
}

TEST(StaticPolicyTest, RedividesWhenVmCountChanges) {
  StaticPolicy policy;
  StatsHistory history;
  const auto two = policy.compute(make_stats(300, {{1}, {2}}),
                                  make_ctx(300, history));
  EXPECT_EQ(target_of(two, 1), 150u);
  const auto three = policy.compute(make_stats(300, {{1}, {2}, {3}}),
                                    make_ctx(300, history));
  EXPECT_EQ(target_of(three, 1), 100u);
}

TEST(StaticPolicyTest, NoVmsNoTargets) {
  StaticPolicy policy;
  StatsHistory history;
  EXPECT_TRUE(policy.compute(make_stats(300, {}), make_ctx(300, history)).empty());
}

// Algorithm 3: equal split over VMs with cumul_puts_failed > 0; VMs that
// never swapped get nothing.
TEST(ReconfStaticPolicyTest, ZeroTargetsBeforeAnyActivity) {
  ReconfStaticPolicy policy;
  StatsHistory history;
  const auto out = policy.compute(make_stats(300, {{1}, {2}, {3}}),
                                  make_ctx(300, history));
  for (const auto& t : out) EXPECT_EQ(t.mm_target, 0u);
}

TEST(ReconfStaticPolicyTest, ActiveVmsShareEverything) {
  ReconfStaticPolicy policy;
  StatsHistory history;
  hyper::VmMemStats vm1{.vm_id = 1, .cumul_puts_failed = 5};
  hyper::VmMemStats vm2{.vm_id = 2, .cumul_puts_failed = 0};
  hyper::VmMemStats vm3{.vm_id = 3, .cumul_puts_failed = 1};
  const auto out = policy.compute(make_stats(300, {vm1, vm2, vm3}),
                                  make_ctx(300, history));
  EXPECT_EQ(target_of(out, 1), 150u);
  EXPECT_EQ(target_of(out, 2), 0u);
  EXPECT_EQ(target_of(out, 3), 150u);
}

TEST(ReconfStaticPolicyTest, ActivationIsSticky) {
  // A VM that failed once long ago keeps its share even in quiet intervals
  // (the algorithm keys off the cumulative counter).
  ReconfStaticPolicy policy;
  StatsHistory history;
  hyper::VmMemStats vm1{.vm_id = 1, .puts_total = 0, .cumul_puts_failed = 1};
  const auto out =
      policy.compute(make_stats(300, {vm1}), make_ctx(300, history));
  EXPECT_EQ(target_of(out, 1), 300u);
}

// Algorithm 4 tests.
TEST(SmartPolicyTest, RejectsBadP) {
  EXPECT_THROW(SmartPolicy(SmartPolicyConfig{0.0, 0}), std::invalid_argument);
  EXPECT_THROW(SmartPolicy(SmartPolicyConfig{-1.0, 0}), std::invalid_argument);
  EXPECT_THROW(SmartPolicy(SmartPolicyConfig{101.0, 0}), std::invalid_argument);
  EXPECT_THROW(SmartPolicy(SmartPolicyConfig{
                   std::numeric_limits<double>::quiet_NaN(), 0}),
               std::invalid_argument);
  EXPECT_THROW(SmartPolicy(SmartPolicyConfig{
                   std::numeric_limits<double>::infinity(), 0}),
               std::invalid_argument);
}

TEST(SmartPolicyTest, GrowsTargetOfFailingVm) {
  SmartPolicy policy(SmartPolicyConfig{10.0, 0});  // P = 10% => incr = 100
  StatsHistory history;
  hyper::VmMemStats vm1{.vm_id = 1, .puts_total = 50, .puts_succ = 40,
                        .tmem_used = 200, .mm_target = 200};
  hyper::VmMemStats vm2{.vm_id = 2, .puts_total = 10, .puts_succ = 10,
                        .tmem_used = 100, .mm_target = 100};
  const auto out = policy.compute(make_stats(1000, {vm1, vm2}),
                                  make_ctx(1000, history));
  EXPECT_EQ(target_of(out, 1), 300u);  // 200 + 10% of 1000
  EXPECT_EQ(target_of(out, 2), 100u);  // no failures, no slack: unchanged
}

TEST(SmartPolicyTest, ShrinksIdleVmBeyondThreshold) {
  SmartPolicy policy(SmartPolicyConfig{10.0, 50});
  StatsHistory history;
  // Slack = 400 - 100 = 300 > threshold 50: shrink by 10%.
  hyper::VmMemStats vm1{.vm_id = 1, .puts_total = 5, .puts_succ = 5,
                        .tmem_used = 100, .mm_target = 400};
  const auto out =
      policy.compute(make_stats(1000, {vm1}), make_ctx(1000, history));
  EXPECT_EQ(target_of(out, 1), 360u);  // 90% of 400
}

TEST(SmartPolicyTest, SmallSlackIsLeftAlone) {
  SmartPolicy policy(SmartPolicyConfig{10.0, 50});
  StatsHistory history;
  hyper::VmMemStats vm1{.vm_id = 1, .puts_total = 5, .puts_succ = 5,
                        .tmem_used = 380, .mm_target = 400};
  const auto out =
      policy.compute(make_stats(1000, {vm1}), make_ctx(1000, history));
  EXPECT_EQ(target_of(out, 1), 400u);
}

// Equations 1-2: over-allocation is scaled back proportionally so the sum
// of targets never exceeds the node's tmem.
TEST(SmartPolicyTest, NormalizesOverAllocation) {
  SmartPolicy policy(SmartPolicyConfig{20.0, 0});  // incr = 200
  StatsHistory history;
  hyper::VmMemStats vm1{.vm_id = 1, .puts_total = 9, .puts_succ = 0,
                        .tmem_used = 500, .mm_target = 500};
  hyper::VmMemStats vm2{.vm_id = 2, .puts_total = 9, .puts_succ = 0,
                        .tmem_used = 500, .mm_target = 500};
  const auto out = policy.compute(make_stats(1000, {vm1, vm2}),
                                  make_ctx(1000, history));
  // Raw targets 700 each => sum 1400 > 1000 => factor 1000/1400.
  const PageCount t1 = target_of(out, 1);
  const PageCount t2 = target_of(out, 2);
  EXPECT_LE(t1 + t2, 1000u);
  EXPECT_EQ(t1, t2);
  // floor(700 * 5/7) = 500, allowing one page of floating-point slack.
  EXPECT_GE(t1, 499u);
  EXPECT_LE(t1, 500u);
}

TEST(SmartPolicyTest, SingleVmSelfCapsAtTotal) {
  SmartPolicy policy(SmartPolicyConfig{50.0, 0});
  StatsHistory history;
  hyper::VmMemStats vm1{.vm_id = 1, .puts_total = 9, .puts_succ = 0,
                        .tmem_used = 900, .mm_target = 900};
  const auto out =
      policy.compute(make_stats(1000, {vm1}), make_ctx(1000, history));
  EXPECT_EQ(target_of(out, 1), 1000u);
}

TEST(SmartPolicyTest, GroundsUnlimitedTargetToEqualShare) {
  SmartPolicy policy(SmartPolicyConfig{10.0, 0});
  StatsHistory history;
  hyper::VmMemStats vm1{.vm_id = 1, .puts_total = 2, .puts_succ = 2,
                        .tmem_used = 0, .mm_target = kUnlimitedTarget};
  hyper::VmMemStats vm2{.vm_id = 2, .puts_total = 0, .puts_succ = 0,
                        .tmem_used = 0, .mm_target = kUnlimitedTarget};
  const auto out = policy.compute(make_stats(1000, {vm1, vm2}),
                                  make_ctx(1000, history));
  // Grounded to 500 each, then the idle shrink may apply; never astronomical.
  EXPECT_LE(target_of(out, 1), 500u);
  EXPECT_LE(target_of(out, 2), 500u);
}

TEST(SmartPolicyTest, DefaultThresholdTracksP) {
  SmartPolicy policy(SmartPolicyConfig{2.0, 0});
  EXPECT_EQ(policy.effective_threshold(10000), 200u);
  SmartPolicy explicit_thresh(SmartPolicyConfig{2.0, 77});
  EXPECT_EQ(explicit_thresh.effective_threshold(10000), 77u);
}

TEST(SwapRatePolicyTest, ProportionalToFailureRate) {
  SwapRatePolicy policy(SwapRatePolicyConfig{1.0, 0.0});  // no smoothing/floor
  StatsHistory history;
  hyper::VmMemStats vm1{.vm_id = 1, .puts_total = 30, .puts_succ = 0};
  hyper::VmMemStats vm2{.vm_id = 2, .puts_total = 10, .puts_succ = 0};
  const auto out = policy.compute(make_stats(400, {vm1, vm2}),
                                  make_ctx(400, history));
  EXPECT_EQ(target_of(out, 1), 300u);
  EXPECT_EQ(target_of(out, 2), 100u);
}

TEST(SwapRatePolicyTest, FloorGuaranteesMinimumShare) {
  SwapRatePolicy policy(SwapRatePolicyConfig{1.0, 0.5});
  StatsHistory history;
  hyper::VmMemStats vm1{.vm_id = 1, .puts_total = 100, .puts_succ = 0};
  hyper::VmMemStats vm2{.vm_id = 2};
  const auto out = policy.compute(make_stats(400, {vm1, vm2}),
                                  make_ctx(400, history));
  EXPECT_EQ(target_of(out, 2), 100u);  // half the pool split equally
  EXPECT_EQ(target_of(out, 1), 300u);
}

TEST(SwapRatePolicyTest, IdleNodeSplitsEvenly) {
  SwapRatePolicy policy;
  StatsHistory history;
  const auto out = policy.compute(make_stats(400, {{1}, {2}}),
                                  make_ctx(400, history));
  EXPECT_EQ(target_of(out, 1), target_of(out, 2));
  EXPECT_EQ(target_of(out, 1), 200u);
}

TEST(PolicyFactoryTest, ParseKnownSpecs) {
  EXPECT_EQ(PolicySpec::parse("greedy").kind, PolicyKind::kGreedy);
  EXPECT_EQ(PolicySpec::parse("no-tmem").kind, PolicyKind::kNoTmem);
  EXPECT_EQ(PolicySpec::parse("static").kind, PolicyKind::kStatic);
  EXPECT_EQ(PolicySpec::parse("reconf").kind, PolicyKind::kReconfStatic);
  EXPECT_EQ(PolicySpec::parse("swap-rate").kind, PolicyKind::kSwapRate);
  const auto smart = PolicySpec::parse("smart:2.5");
  EXPECT_EQ(smart.kind, PolicyKind::kSmart);
  EXPECT_DOUBLE_EQ(smart.smart_config.p_percent, 2.5);
  EXPECT_THROW(PolicySpec::parse("bogus"), std::invalid_argument);
}

// A typo'd --policy flag must name every registered policy, not just fail.
TEST(PolicyFactoryTest, UnknownSpecErrorListsCandidates) {
  try {
    PolicySpec::parse("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
    for (const char* name : {"no-tmem", "greedy", "static", "static-alloc",
                             "reconf", "reconf-static", "smart", "swap-rate",
                             "wss"}) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "missing candidate " << name << " in: " << msg;
    }
  }
}

// A smart spec is "smart", "smart-alloc" or "smart:<P>" with the whole P
// one number in (0, 100]: a typo never runs some other P.
TEST(PolicyFactoryTest, SmartSpecsAreStrict) {
  EXPECT_DOUBLE_EQ(PolicySpec::parse("smart").smart_config.p_percent, 0.75);
  EXPECT_DOUBLE_EQ(PolicySpec::parse("smart-alloc").smart_config.p_percent,
                   0.75);
  EXPECT_DOUBLE_EQ(PolicySpec::parse("smart:100").smart_config.p_percent,
                   100.0);
  for (const char* bad :
       {"smartypants", "smart-", "smart:", "smart:2x", "smart:abc",
        "smart: 2", "smart:nan", "smart:inf", "smart:-1", "smart:0",
        "smart:101", "smart:2:3"}) {
    EXPECT_THROW(PolicySpec::parse(bad), std::invalid_argument) << bad;
  }
  try {
    PolicySpec::parse("smart:2x");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("smart:2x"), std::string::npos)
        << e.what();
  }
}

TEST(PolicyFactoryTest, LabelsMatchPaperStyle) {
  EXPECT_EQ(PolicySpec::greedy().label(), "greedy");
  EXPECT_EQ(PolicySpec::smart(0.75).label(), "sm-0.75p");
  EXPECT_EQ(PolicySpec::static_alloc().label(), "static-alloc");
}

TEST(PolicyFactoryTest, MakePolicyInstantiates) {
  EXPECT_EQ(make_policy(PolicySpec::greedy())->name(), "greedy");
  EXPECT_EQ(make_policy(PolicySpec::static_alloc())->name(), "static-alloc");
  EXPECT_EQ(make_policy(PolicySpec::reconf_static())->name(), "reconf-static");
  EXPECT_NE(make_policy(PolicySpec::smart(1.0))->name().find("smart"),
            std::string::npos);
  EXPECT_THROW(make_policy(PolicySpec::no_tmem()), std::logic_error);
}

TEST(PolicyFactoryTest, NeedsManager) {
  EXPECT_FALSE(PolicySpec::no_tmem().needs_manager());
  EXPECT_FALSE(PolicySpec::greedy().needs_manager());
  EXPECT_TRUE(PolicySpec::static_alloc().needs_manager());
  EXPECT_TRUE(PolicySpec::smart(1.0).needs_manager());
}

}  // namespace
}  // namespace smartmem::mm
