// Cluster teardown vs the lending fabric: stop() must cancel every
// outstanding in-flight borrow completion timer exactly as Tkm::stop()
// cancels its pending deliveries (the PR-2 regression class: a scheduled
// callback outliving the object it captures). Covers the rig-level
// contract (cancel, idempotence, re-arm) and the cluster-level path where
// a deadline cap truncates a lending-heavy fleet run while exchanges are
// still mid-flight.
#include <gtest/gtest.h>

#include "cluster/fleet.hpp"
#include "cluster/lending.hpp"
#include "comm/topology.hpp"
#include "hyper/hypervisor.hpp"
#include "sim/simulator.hpp"
#include "tmem/store.hpp"

namespace smartmem::cluster {
namespace {

using tmem::PoolType;

constexpr VmId kVm = 1;
constexpr PageCount kPhys = 64;

hyper::HypervisorConfig hyp_config(PageCount pages) {
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = pages;
  return cfg;
}

struct AsyncRig {
  AsyncRig()
      : borrower(sim, hyp_config(kPhys)),
        donor(sim, hyp_config(kPhys)),
        broker({&borrower, &donor}) {
    borrower.register_vm(kVm);
    donor.register_vm(kVm);
    borrower.set_remote_tmem(broker.port(0));
    donor.set_remote_tmem(broker.port(1));
    donor.set_node_quota(kPhys / 2);
    broker.sync_window();
  }

  sim::Simulator sim;
  hyper::Hypervisor borrower;
  hyper::Hypervisor donor;
  LendingBroker broker;
};

TEST(LendTeardownTest, StopCancelsEveryInFlightTimer) {
  AsyncRig rig;
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.broker.port(0)
                    ->remote_put(kVm, PoolType::kPersistent, 1, i, 100 + i)
                    .ok());
  }
  ASSERT_EQ(rig.broker.fabric().in_flight(0), 3u);
  ASSERT_GT(rig.sim.pending_events(), 0u);

  rig.broker.stop();
  EXPECT_EQ(rig.broker.fabric().totals().cancelled_timers, 3u);
  EXPECT_EQ(rig.broker.fabric().in_flight(0), 0u);

  // The cancelled events must be dead: draining the simulator neither
  // crashes nor resurrects the in-flight accounting.
  rig.sim.run();
  EXPECT_EQ(rig.broker.fabric().in_flight(0), 0u);
  EXPECT_EQ(rig.broker.fabric().totals().cancelled_timers, 3u);
}

TEST(LendTeardownTest, StopIsIdempotentAndCountsOnlyPendingTimers) {
  AsyncRig rig;
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                  .ok());
  // This timer completes normally; only the second put's is still pending
  // at stop time.
  rig.sim.run();
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 1, 43)
                  .ok());

  rig.broker.stop();
  EXPECT_EQ(rig.broker.fabric().totals().cancelled_timers, 1u);
  rig.broker.stop();  // second stop finds nothing to cancel
  EXPECT_EQ(rig.broker.fabric().totals().cancelled_timers, 1u);
}

TEST(LendTeardownTest, TrafficAfterStopRearmsTheFabric) {
  AsyncRig rig;
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                  .ok());
  rig.broker.stop();
  // stop() is teardown, not poison: a put issued afterwards (e.g. by a
  // straggler event already in the queue) still round-trips and tracks its
  // own completion timer.
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 1, 43)
                  .ok());
  EXPECT_EQ(rig.broker.fabric().in_flight(0), 1u);
  rig.sim.run();
  EXPECT_EQ(rig.broker.fabric().in_flight(0), 0u);
}

// ---- Cluster-level: teardown mid-flight via the deadline cap --------------

TEST(LendTeardownTest, ClusterTeardownCancelsMidFlightBorrows) {
  // The real Cluster::teardown() path, not the rig. The lend hops (10 ms
  // each way) are longer than the rack lookahead (the default 5 ms
  // inter-node hop), so a borrow burst that node 0 fires at t = 0 — inside
  // the engine's first window — leaves its completion timers pending past
  // that window's barrier. The VM-less nodes are trivially done at that
  // barrier, so run() goes straight to teardown, which must cancel the
  // timers exactly as Tkm::stop() cancels pending deliveries.
  ClusterConfig ccfg;
  ccfg.topology.internode_lend_req.latency = 10 * kMillisecond;
  ccfg.topology.internode_lend_resp.latency = 10 * kMillisecond;
  ccfg.lending_async.cache_pages = 8;
  ccfg.lending_async.timeout = 100 * kMillisecond;  // no retries
  Cluster cluster(std::move(ccfg));
  core::NodeConfig ncfg;
  ncfg.tmem_pages = kPhys;
  cluster.add_node(ncfg);
  cluster.add_node(ncfg);
  cluster.start();
  ASSERT_GT(cluster.engine()->lookahead(), 0);
  ASSERT_LT(cluster.engine()->lookahead(), 10 * kMillisecond);

  cluster.node(0).hypervisor().register_vm(kVm);
  cluster.node(1).hypervisor().register_vm(kVm);
  cluster.node(1).hypervisor().set_node_quota(kPhys / 2);

  LendingBroker* broker = cluster.broker();
  ASSERT_NE(broker, nullptr);
  broker->sync_window();  // between windows: lease the donor's credit
  ASSERT_EQ(broker->credit(0, 1), kPhys / 2);
  bool placed = true;
  cluster.node(0).simulator().schedule(0, [&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      placed = placed && broker->port(0)
                             ->remote_put(kVm, PoolType::kPersistent, 1, i,
                                          100 + i)
                             .ok();
    }
  });

  cluster.run();
  EXPECT_TRUE(placed);
  EXPECT_EQ(broker->borrow_placements(), 3u);
  EXPECT_EQ(broker->fabric().totals().cancelled_timers, 3u);
  EXPECT_EQ(broker->fabric().in_flight(0), 0u);

  // A cancelled callback must be dead, not a crash waiting in a node
  // shard's queue after teardown.
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    cluster.node(i).simulator().run();
  }
  EXPECT_EQ(broker->fabric().totals().cancelled_timers, 3u);
  EXPECT_EQ(broker->fabric().in_flight(0), 0u);
}

TEST(LendTeardownTest, TruncatedFleetRunCompletesCleanly) {
  // deadline_cap cuts a lending-heavy fleet run mid-scenario: the VMs wind
  // down, teardown cancels whatever the cut left in flight, and the
  // truncated run's books still balance (the fuzz battery checks the
  // identities; here the run merely must finish near the cap with fabric
  // traffic on the record).
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

TEST(LendTeardownTest, UncappedFleetRunCancelsNothing) {
  // Run to the natural end of the scenario: the drain leaves no timers
  // pending, so teardown has nothing to cancel — the counter isolates the
  // truncation path.
  FleetExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.vms_per_node = 2;
  cfg.scale = 0.0625;
  cfg.seed = 42;
  cfg.lending_heavy = true;
  cfg.lending_async.cache_pages = 16;

  const FleetRunResult r = run_fleet_scenario(cfg);
  EXPECT_GT(r.fabric_requests, 0u);
  EXPECT_EQ(r.fabric_cancelled_timers, 0u);
}

}  // namespace
}  // namespace smartmem::cluster
