// Fleet determinism contracts (DESIGN §12): the fleet experiment is a pure
// function of its config — delta framing (resync_every > 1) replays the
// exact event timeline of the full-vector default (only the byte accounting
// may differ), and a different seed reshuffles the workload. A deadline cap
// truncates a lending fleet cleanly.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

#include "cluster/fleet.hpp"

namespace smartmem::cluster {
namespace {

FleetExperimentConfig fleet_8x16() {
  FleetExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.vms_per_node = 16;
  cfg.scale = 0.0625;
  cfg.seed = 42;
  return cfg;
}

/// The simulation-outcome subset (the bench CSV's encoding-independent
/// prefix): what delta-vs-full runs must agree on.
void expect_same_outcome(const FleetRunResult& a, const FleetRunResult& b) {
  EXPECT_EQ(a.aggregate_failed_puts, b.aggregate_failed_puts);
  EXPECT_EQ(a.puts_total, b.puts_total);
  EXPECT_EQ(a.puts_succ, b.puts_succ);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.mm_samples, b.mm_samples);
  EXPECT_EQ(a.mm_decides, b.mm_decides);
  EXPECT_EQ(a.gm_decisions, b.gm_decisions);
  EXPECT_EQ(a.borrow_placements, b.borrow_placements);
  EXPECT_EQ(a.lending_failed_placements, b.lending_failed_placements);
}

TEST(FleetDeterminism, DeltaEncodingReplaysFullVectorTimeline) {
  FleetExperimentConfig full = fleet_8x16();
  FleetExperimentConfig delta = fleet_8x16();
  delta.resync_every = 16;

  const FleetRunResult a = run_fleet_scenario(full);
  const FleetRunResult b = run_fleet_scenario(delta);
  ASSERT_GT(a.puts_total, 0u);
  ASSERT_GT(a.mm_samples, 0u);
  ASSERT_GT(a.aggregate_failed_puts, 0u);
  expect_same_outcome(a, b);
  // The default frames every message full on every hop.
  EXPECT_EQ(a.targets_full_sends, a.mm_targets_sent);
  EXPECT_GE(a.stats_full_sends, a.mm_samples);
  EXPECT_EQ(a.rollups_suppressed, 0u);
  EXPECT_EQ(a.quota_sends_skipped, 0u);
  // And the encoding actually did something: fewer bytes, some deltas.
  EXPECT_LT(b.node_control_bytes, a.node_control_bytes);
  EXPECT_LT(b.rack_control_bytes, a.rack_control_bytes);
  EXPECT_GT(b.stats_full_sends, 0u);
  EXPECT_LT(b.stats_full_sends, b.mm_samples);
}

TEST(FleetDeterminism, RejectsSimThreadsOtherThanOne) {
  // The engine runs every window on the calling thread; the field is a stub
  // that must stay 1, and any other value fails before the fleet is built.
  FleetExperimentConfig cfg = fleet_8x16();
  for (const std::size_t threads : {0u, 2u, 4u}) {
    cfg.sim_threads = threads;
    EXPECT_THROW(run_fleet_scenario(cfg), std::invalid_argument)
        << "sim_threads=" << threads;
  }
}

TEST(FleetDeterminism, SeedChangesOutcome) {
  FleetExperimentConfig a_cfg = fleet_8x16();
  FleetExperimentConfig b_cfg = fleet_8x16();
  a_cfg.nodes = 2;
  a_cfg.vms_per_node = 4;
  b_cfg.nodes = 2;
  b_cfg.vms_per_node = 4;
  b_cfg.seed = 43;

  const FleetRunResult a = run_fleet_scenario(a_cfg);
  const FleetRunResult b = run_fleet_scenario(b_cfg);
  // Not a byte-identity target — different seeds must actually reshuffle
  // the workload (guards against the seed being dropped on the floor).
  EXPECT_NE(a.puts_total, b.puts_total);
}

TEST(FleetDeterminism, TruncatedFleetRunCompletesCleanly) {
  // deadline_cap cuts a lending-heavy fleet run mid-scenario: the VMs wind
  // down and the run must finish near the cap with fabric traffic on the
  // record (the fuzz battery checks the fabric's counter identities).
  FleetExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.vms_per_node = 2;
  cfg.scale = 0.0625;
  cfg.seed = 42;
  cfg.lending_heavy = true;
  cfg.lending_async.cache_pages = 16;
  cfg.lend_rtt_x = 50.0;
  cfg.deadline_cap = 8 * kSecond;

  const FleetRunResult r = run_fleet_scenario(cfg);
  EXPECT_GT(r.fabric_requests, 0u);
  // The wind-down may run slightly past the cap, but nowhere near the
  // uncapped makespan.
  EXPECT_LT(r.makespan_s, 10.0);
}

}  // namespace
}  // namespace smartmem::cluster
