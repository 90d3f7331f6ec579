// End-to-end adaptive control plane at the staleness cliff.
//
// Geometry: uplink latency fixed at 2.5x the sampling interval with
// drop-oldest bounded queues — ablation_comms' livelock point (~2.5
// samples in flight). At capacity 2 that is total starvation: every
// message is evicted by two newer sends before its 2.5-interval delivery,
// so the MM never hears anything at all. At capacity 3 messages survive
// but every delivery is ~2.5 intervals old forever — the paper's fixed
// loop perpetually acts on stale data. The tests pin both baselines, then
// check the two adaptive mechanisms actually defuse the staleness
// end-to-end: stale-skip decisions audited as alg4:stale-skip in the
// decision log, and the IntervalController stretching the hypervisor's
// cadence over the sequenced downlink until samples arrive fresh again.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "core/scenario.hpp"

namespace smartmem::core {
namespace {

constexpr double kTinyScale = 0.0625;

/// Scenario 2 node config at the drop-oldest livelock point: the uplink
/// takes 2.5 sampling intervals per hop and holds at most `capacity`
/// in-flight messages.
NodeConfig livelock_config(std::size_t capacity = 3) {
  NodeConfig cfg = scaled_node_defaults(kTinyScale);
  cfg.comm.uplink.latency = cfg.sample_interval * 5 / 2;
  cfg.comm.uplink.queue_capacity = capacity;
  cfg.comm.uplink.queue_policy = comm::QueuePolicy::kDropOldest;
  cfg.comm.downlink.queue_capacity = capacity;
  cfg.comm.downlink.queue_policy = comm::QueuePolicy::kDropOldest;
  return cfg;
}

mm::PolicySpec smart_with(mm::StaleMode mode) {
  mm::PolicySpec policy = mm::PolicySpec::smart(6.0);
  policy.smart_config.stale_mode = mode;
  return policy;
}

// Pin the failure mode first. Capacity 2 starves the MM outright (every
// message is evicted before delivery); capacity 3 delivers, but every
// sample stays ~2.5 intervals old to the very end of the run.
TEST(AdaptiveIntegrationTest, LivelockReproducesWithFixedLoop) {
  const ScenarioSpec spec = scenario2(kTinyScale);

  NodeConfig starved = livelock_config(2);
  auto s = build_node(spec, smart_with(mm::StaleMode::kOff), 7, &starved);
  s->run(spec.deadline);
  EXPECT_EQ(s->manager()->samples_seen(), 0u);

  NodeConfig cfg = livelock_config();
  auto node = build_node(spec, smart_with(mm::StaleMode::kOff), 7, &cfg);
  node->run(spec.deadline);
  EXPECT_GT(node->manager()->samples_seen(), 0u);
  EXPECT_GT(node->manager()->last_stats_age_intervals(), 1.5);
  EXPECT_EQ(node->manager()->policy().stale_decisions(), 0u);
}

// stale-skip engages on exactly those decisions and says so in the audit
// log: the JSONL decision records carry the alg4:stale-skip condition.
TEST(AdaptiveIntegrationTest, StaleSkipFiresAndIsAudited) {
  const ScenarioSpec spec = scenario2(kTinyScale);
  NodeConfig cfg = livelock_config();
  const std::string audit_path =
      ::testing::TempDir() + "/adaptive_stale_audit.jsonl";
  cfg.obs.audit_out = audit_path;

  auto node = build_node(spec, smart_with(mm::StaleMode::kSkip), 7, &cfg);
  node->run(spec.deadline);

  EXPECT_GT(node->manager()->policy().stale_decisions(), 0u);

  std::ifstream in(audit_path);
  ASSERT_TRUE(in.good()) << audit_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string log = buf.str();
  EXPECT_NE(log.find("alg4:stale-skip"), std::string::npos)
      << "no stale-skip condition in the decision audit log";
  EXPECT_NE(log.find("\"policy\":\"smart-alloc(P=6.00%,stale=skip@1.5)\""),
            std::string::npos)
      << "policy name does not carry the stale mode";
}

// The tentpole, end to end: the IntervalController notices the congested
// uplink, stretches the cadence, the update rides the sequenced downlink,
// the hypervisor reschedules its sampler at runtime — and the livelock no
// longer reproduces: samples arrive fresh (under the stale threshold)
// because the interval now exceeds the hop latency.
TEST(AdaptiveIntegrationTest, AdaptiveIntervalDefusesTheLivelock) {
  const ScenarioSpec spec = scenario2(kTinyScale);
  NodeConfig cfg = livelock_config();
  cfg.adaptive_interval.enabled = true;
  // Scenario 2 keeps its VMs at the put ceiling throughout, so the
  // hot-shrink reflex would tug against the congestion stretch forever;
  // disable it here to exercise the congestion loop in isolation.
  cfg.adaptive_interval.hot_failed_puts =
      std::numeric_limits<std::uint64_t>::max();

  auto node = build_node(spec, smart_with(mm::StaleMode::kSkip), 7, &cfg);
  node->run(spec.deadline);

  const auto* ctl = node->manager()->interval_controller();
  ASSERT_NE(ctl, nullptr);
  EXPECT_GT(ctl->stretches(), 0u);
  // The retune reached the hypervisor over the downlink and rescheduled the
  // running sampler.
  EXPECT_GT(node->hypervisor().interval_updates(), 0u);
  EXPECT_GT(node->hypervisor().sample_interval(), cfg.sample_interval);
  EXPECT_EQ(node->hypervisor().sample_interval(),
            node->manager()->current_interval());
  // Livelock gone: the last delivered sample is fresh again.
  EXPECT_LT(node->manager()->last_stats_age_intervals(), 1.5);
}

// The adaptive path stays a pure function of the seed: two identical runs
// produce identical finish times and identical controller traces.
TEST(AdaptiveIntegrationTest, AdaptiveRunIsDeterministic) {
  const ScenarioSpec spec = scenario2(kTinyScale);
  NodeConfig cfg = livelock_config();
  cfg.adaptive_interval.enabled = true;

  auto a = build_node(spec, smart_with(mm::StaleMode::kWiden), 11, &cfg);
  a->run(spec.deadline);
  auto b = build_node(spec, smart_with(mm::StaleMode::kWiden), 11, &cfg);
  b->run(spec.deadline);

  for (VmId id : a->vm_ids()) {
    EXPECT_EQ(a->runner(id).finish_time(), b->runner(id).finish_time());
  }
  EXPECT_EQ(a->manager()->interval_controller()->changes(),
            b->manager()->interval_controller()->changes());
  EXPECT_EQ(a->manager()->current_interval(), b->manager()->current_interval());
  EXPECT_EQ(a->hypervisor().interval_updates(),
            b->hypervisor().interval_updates());
  EXPECT_EQ(a->manager()->policy().stale_decisions(),
            b->manager()->policy().stale_decisions());
}

}  // namespace
}  // namespace smartmem::core
