// End-to-end stale-widen at the staleness cliff.
//
// Geometry: uplink latency fixed at 2.5x the sampling interval with
// drop-oldest bounded queues — ablation_comms' livelock point (~2.5
// samples in flight). At capacity 2 that is total starvation: every
// message is evicted by two newer sends before its 2.5-interval delivery,
// so the MM never hears anything at all. At capacity 3 messages survive
// but every delivery is ~2.5 intervals old forever — the paper's fixed
// loop perpetually acts on stale data. The tests pin both baselines, then
// check that stale-widen engages end-to-end: its decisions are audited as
// alg4:stale-widen in the decision log, and a widened run stays a pure
// function of the seed.
#include <gtest/gtest.h>

#include <fstream>
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

// stale-widen engages on exactly those decisions and says so in the audit
// log: the JSONL decision records carry the alg4:stale-widen condition.
TEST(AdaptiveIntegrationTest, StaleWidenFiresAndIsAudited) {
  const ScenarioSpec spec = scenario2(kTinyScale);
  NodeConfig cfg = livelock_config();
  const std::string audit_path =
      ::testing::TempDir() + "/adaptive_stale_audit.jsonl";
  cfg.obs.audit_out = audit_path;

  auto node = build_node(spec, smart_with(mm::StaleMode::kWiden), 7, &cfg);
  node->run(spec.deadline);

  EXPECT_GT(node->manager()->policy().stale_decisions(), 0u);

  std::ifstream in(audit_path);
  ASSERT_TRUE(in.good()) << audit_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string log = buf.str();
  EXPECT_NE(log.find("alg4:stale-widen"), std::string::npos)
      << "no stale-widen condition in the decision audit log";
  EXPECT_NE(log.find("\"policy\":\"smart-alloc(P=6.00%,stale=widen@1.5)\""),
            std::string::npos)
      << "policy name does not carry the stale mode";
}

// The widened path stays a pure function of the seed: two identical runs
// produce identical finish times and identical stale-decision counts.
TEST(AdaptiveIntegrationTest, StaleWidenRunIsDeterministic) {
  const ScenarioSpec spec = scenario2(kTinyScale);
  NodeConfig cfg = livelock_config();

  auto a = build_node(spec, smart_with(mm::StaleMode::kWiden), 11, &cfg);
  a->run(spec.deadline);
  auto b = build_node(spec, smart_with(mm::StaleMode::kWiden), 11, &cfg);
  b->run(spec.deadline);

  for (VmId id : a->vm_ids()) {
    EXPECT_EQ(a->runner(id).finish_time(), b->runner(id).finish_time());
  }
  EXPECT_GT(a->manager()->policy().stale_decisions(), 0u);
  EXPECT_EQ(a->manager()->policy().stale_decisions(),
            b->manager()->policy().stale_decisions());
}

}  // namespace
}  // namespace smartmem::core
