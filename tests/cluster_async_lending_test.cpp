// The lending data plane (DESIGN §15): fabric round trips with donor-side
// queueing, the full fault surface (loss, reorder, outage mid-borrow),
// timeout/retry with a deterministic give-up, congestion via the bounded
// per-pair in-flight window, in-flight timers on each borrower's own
// simulator, and the borrower-side BorrowCache (hit/miss accounting,
// invalidation on flush and donor recall, capacity-0 no-op contract).
#include "cluster/lend_fabric.hpp"

#include <gtest/gtest.h>

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
// Default lend hops are fixed 40 us each way + 5 us donor service.
constexpr SimTime kHop = 40 * kMicrosecond;
constexpr SimTime kService = 5 * kMicrosecond;

hyper::HypervisorConfig hyp_config(PageCount pages) {
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = pages;
  return cfg;
}

/// Two-node rig: node 0 borrows, node 1 donates, both partitions on one
/// simulator. One barrier leases the donor's lendable half as the
/// borrower's credit. The topology and protocol config are taken at
/// construction so tests can install faults/queue bounds first.
struct AsyncRig {
  explicit AsyncRig(const comm::ClusterTopology& topo,
                    const AsyncLendingConfig& acfg)
      : borrower(sim, hyp_config(kPhys)),
        donor(sim, hyp_config(kPhys)),
        broker({&borrower, &donor}, topo, acfg) {
    borrower.register_vm(kVm);
    donor.register_vm(kVm);
    borrower.set_remote_tmem(broker.port(0));
    donor.set_remote_tmem(broker.port(1));
    donor.set_node_quota(kPhys / 2);
    broker.sync_window();
  }

  LendFabricStats totals() const { return broker.fabric().totals(); }

  sim::Simulator sim;
  hyper::Hypervisor borrower;
  hyper::Hypervisor donor;
  LendingBroker broker;
};

AsyncLendingConfig async_on(PageCount cache_pages = 0) {
  AsyncLendingConfig cfg;
  cfg.cache_pages = cache_pages;
  return cfg;
}

TEST(AsyncLendingTest, RoundTripChargesModeledRttThroughThePort) {
  AsyncRig rig((comm::ClusterTopology()), async_on());

  // First exchange: req hop + donor service + resp hop, no queueing.
  ASSERT_TRUE(rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0,
                                             42));
  EXPECT_EQ(rig.broker.port(0)->last_op_elapsed(), 2 * kHop + kService);

  const auto payload =
      rig.broker.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, 42u);
  // The get queues behind the put still occupying the donor (same sim
  // instant): service starts at the put's donor_next_free.
  EXPECT_GT(rig.broker.port(0)->last_op_elapsed(), 2 * kHop + kService);

  const LendFabricStats t = rig.totals();
  EXPECT_EQ(t.requests, 2u);
  EXPECT_EQ(t.responses, 2u);
  EXPECT_EQ(t.give_ups, 0u);
  EXPECT_EQ(t.put_rtt_us.count(), 1u);
  EXPECT_EQ(t.get_rtt_us.count(), 1u);
  EXPECT_GT(t.req_bytes, 0u);
  EXPECT_GT(t.resp_bytes, 0u);
}

// The broker takes each borrower's simulator from that node's hypervisor:
// a borrower-0 put starts on node 0's clock and parks its in-flight timer
// in node 0's event queue, never in the donor's.
TEST(AsyncLendingTest, InFlightTimerRunsOnTheBorrowersSimulator) {
  sim::Simulator borrower_sim;
  sim::Simulator donor_sim;
  hyper::Hypervisor borrower(borrower_sim, hyp_config(kPhys));
  hyper::Hypervisor donor(donor_sim, hyp_config(kPhys));
  LendingBroker broker({&borrower, &donor});
  donor.set_node_quota(kPhys / 2);
  broker.sync_window();

  constexpr SimTime kIssue = 3 * kMillisecond;
  borrower_sim.run_until(kIssue);  // the donor's clock stays at 0
  ASSERT_TRUE(broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0,
                                         42));
  EXPECT_EQ(broker.fabric().in_flight(0), 1u);
  EXPECT_EQ(borrower_sim.pending_events(), 1u);
  EXPECT_EQ(donor_sim.pending_events(), 0u);

  // The timer fires one round trip after the borrower's own clock.
  EXPECT_EQ(borrower_sim.run(), kIssue + 2 * kHop + kService);
  EXPECT_EQ(broker.fabric().in_flight(0), 0u);
  EXPECT_EQ(donor_sim.pending_events(), 0u);
}

TEST(AsyncLendingTest, DonorQueueSerializesBackToBackExchanges) {
  AsyncRig rig((comm::ClusterTopology()), async_on());
  SimTime prev = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1,
                                               i, 100 + i));
    const SimTime elapsed = rig.broker.port(0)->last_op_elapsed();
    EXPECT_GT(elapsed, prev);  // each put waits behind the previous service
    prev = elapsed;
  }
  // Exactly one service-time step per queued exchange.
  EXPECT_EQ(prev, 2 * kHop + 3 * kService);
}

TEST(AsyncLendingTest, TotalRequestLossExhaustsAttemptsIntoAFailedPut) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.loss_rate = 1.0;
  AsyncRig rig(topo, async_on());

  EXPECT_FALSE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  EXPECT_EQ(rig.broker.failed_placements(), 1u);
  EXPECT_EQ(rig.broker.borrow_placements(), 0u);
  EXPECT_EQ(rig.broker.credit(0, 1), kPhys / 2);  // no credit consumed
  // The guest pays the full retry budget: max_attempts x timeout.
  const AsyncLendingConfig defaults = async_on();
  EXPECT_EQ(rig.broker.port(0)->last_op_elapsed(),
            defaults.max_attempts * defaults.timeout);

  const LendFabricStats t = rig.totals();
  EXPECT_EQ(t.requests, defaults.max_attempts);
  EXPECT_EQ(t.retries, defaults.max_attempts - 1);
  EXPECT_EQ(t.timeouts, defaults.max_attempts);
  EXPECT_EQ(t.lost_requests, defaults.max_attempts);
  EXPECT_EQ(t.give_ups, 1u);
  EXPECT_EQ(t.responses, 0u);
}

TEST(AsyncLendingTest, ResponseLossTimesOutTheBorrowerToo) {
  comm::ClusterTopology topo;
  topo.internode_lend_resp.faults.loss_rate = 1.0;
  AsyncRig rig(topo, async_on());
  EXPECT_FALSE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  const LendFabricStats t = rig.totals();
  EXPECT_EQ(t.lost_responses, async_on().max_attempts);
  EXPECT_EQ(t.give_ups, 1u);
}

TEST(AsyncLendingTest, ReorderedLateResponseIsIndistinguishableFromLoss) {
  comm::ClusterTopology topo;
  // Every response draws the reorder penalty; the default reorder_extra
  // (10 ms) pushes it past the 2 ms attempt timeout.
  topo.internode_lend_resp.faults.reorder_rate = 1.0;
  AsyncRig rig(topo, async_on());
  EXPECT_FALSE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  const LendFabricStats t = rig.totals();
  EXPECT_EQ(t.late_responses, async_on().max_attempts);
  EXPECT_EQ(t.reordered, async_on().max_attempts);
  EXPECT_EQ(t.give_ups, 1u);
}

TEST(AsyncLendingTest, OutageWindowFailsBorrowsInsideItOnly) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.down_from = 1 * kMillisecond;
  topo.internode_lend_req.faults.down_until = 100 * kMillisecond;
  AsyncRig rig(topo, async_on());

  // Before the window: clean round trip.
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));

  // Inside the window: every attempt's send is dropped on the floor.
  rig.sim.run_until(2 * kMillisecond);
  EXPECT_FALSE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 1, 43));
  EXPECT_EQ(rig.totals().outage_drops, async_on().max_attempts);
  EXPECT_EQ(rig.totals().give_ups, 1u);

  // After the window: service resumes.
  rig.sim.run_until(200 * kMillisecond);
  EXPECT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 2, 44));
  EXPECT_EQ(rig.broker.borrow_placements(), 2u);
}

TEST(AsyncLendingTest, PersistentGetGiveUpFallsBackSynchronously) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.down_from = 1 * kMillisecond;
  topo.internode_lend_req.faults.down_until = 100 * kMillisecond;
  AsyncRig rig(topo, async_on());
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));

  // The transport is down but the guest holds its only copy remotely: the
  // broker must still produce the page, charging the retry budget.
  rig.sim.run_until(2 * kMillisecond);
  const auto payload =
      rig.broker.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, 42u);
  EXPECT_EQ(rig.totals().get_fallbacks, 1u);
  const AsyncLendingConfig defaults = async_on();
  EXPECT_EQ(rig.broker.port(0)->last_op_elapsed(),
            defaults.max_attempts * defaults.timeout);
}

TEST(AsyncLendingTest, FailedReplacementDropsTheEntrySoOwnsNeverLies) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.down_from = 1 * kMillisecond;
  topo.internode_lend_req.faults.down_until = 100 * kMillisecond;
  AsyncRig rig(topo, async_on(8));
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_TRUE(rig.broker.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));

  // The replacement put never reaches the donor: the stale copy must not
  // survive anywhere — not in the index, not at the donor, not in the cache.
  rig.sim.run_until(2 * kMillisecond);
  EXPECT_FALSE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 43));
  EXPECT_EQ(rig.broker.failed_replacements(), 1u);
  EXPECT_FALSE(rig.broker.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));
  EXPECT_EQ(rig.broker.borrowed_total(0), 0u);
  EXPECT_EQ(rig.broker.unsettled_releases(0, 1), 1u);  // stale frame freed
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_get(kVm, PoolType::kPersistent, 1, 0)
                   .has_value());
  // A failed replacement is transport loss, not donor shortage.
  EXPECT_EQ(rig.broker.failed_placements(), 0u);
}

TEST(AsyncLendingTest, BoundedInFlightWindowCongestsThenDrains) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.queue_capacity = 2;
  AsyncRig rig(topo, async_on());

  // Two exchanges in flight saturate the pipe; the third is refused
  // without touching the wire.
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 1, 43));
  EXPECT_EQ(rig.broker.fabric().in_flight(0), 2u);
  EXPECT_FALSE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 2, 44));
  EXPECT_EQ(rig.totals().congestion_drops, 1u);
  EXPECT_EQ(rig.totals().requests, 2u);  // the refused one never sent

  // Completion timers drain the window; fresh placements flow again.
  rig.sim.run();
  EXPECT_EQ(rig.broker.fabric().in_flight(0), 0u);
  EXPECT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 2, 44));
}

// ---- BorrowCache unit behaviour -------------------------------------------

TEST(BorrowCacheTest, LruEvictsColdestAndCountsEverything) {
  BorrowCache cache(2);
  const RemoteKey a{kVm, PoolType::kPersistent, 1, 0};
  const RemoteKey b{kVm, PoolType::kPersistent, 1, 1};
  const RemoteKey c{kVm, PoolType::kPersistent, 1, 2};

  EXPECT_FALSE(cache.lookup(a).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(a, 10);
  cache.insert(b, 11);
  EXPECT_EQ(*cache.lookup(a), 10u);  // bumps a to MRU; b is now coldest
  cache.insert(c, 12);               // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_EQ(*cache.lookup(a), 10u);
  EXPECT_EQ(*cache.lookup(c), 12u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);

  // Refresh replaces the payload without a new insertion slot.
  cache.insert(a, 20);
  EXPECT_EQ(*cache.lookup(a), 20u);
  EXPECT_EQ(cache.insertions(), 3u);

  cache.erase(a);
  EXPECT_EQ(cache.invalidations(), 1u);
  cache.erase(a);  // double-erase counts nothing
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BorrowCacheTest, CapacityZeroIsACompleteNoOp) {
  BorrowCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const RemoteKey a{kVm, PoolType::kPersistent, 1, 0};
  cache.insert(a, 10);
  EXPECT_FALSE(cache.lookup(a).has_value());
  cache.erase(a);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.insertions(), 0u);
  EXPECT_EQ(cache.invalidations(), 0u);
}

// ---- BorrowCache wired into the broker ------------------------------------

TEST(AsyncLendingCacheTest, HitServesAtTheAccessPointForFree) {
  AsyncRig rig((comm::ClusterTopology()), async_on(8));
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));

  // The put populated the cache: the get never crosses the fabric.
  const auto payload =
      rig.broker.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, 42u);
  EXPECT_EQ(rig.broker.port(0)->last_op_elapsed(), 0);
  EXPECT_EQ(rig.totals().requests, 1u);  // only the put went out
  EXPECT_EQ(rig.broker.fabric().cache(0).hits(), 1u);
  // The donor copy survives a persistent cache hit.
  EXPECT_EQ(rig.broker.unsettled_releases(0, 1), 0u);
  EXPECT_EQ(rig.broker.borrowed_total(0), 1u);
  EXPECT_TRUE(rig.broker.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));
  // The modeled get RTT records the hit at 0 us — the metric the cache cuts.
  EXPECT_EQ(rig.totals().get_rtt_us.count(), 1u);
  EXPECT_EQ(rig.totals().get_rtt_us.mean(), 0.0);
}

TEST(AsyncLendingCacheTest, EphemeralHitStaysExclusiveViaInvalidate) {
  AsyncRig rig((comm::ClusterTopology()), async_on(8));
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 0, 7));
  ASSERT_EQ(rig.broker.credit(0, 1), kPhys / 2 - 1);

  // The cache hit consumes the borrowed page exactly like a fabric hit
  // would: fire-and-forget invalidate, donor frame freed, index forgets.
  const auto hit =
      rig.broker.port(0)->remote_get(kVm, PoolType::kEphemeral, 2, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 7u);
  EXPECT_GE(rig.totals().invalidates, 1u);
  EXPECT_EQ(rig.broker.unsettled_releases(0, 1), 1u);
  EXPECT_FALSE(rig.broker.port(0)->owns(kVm, PoolType::kEphemeral, 2, 0));
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_get(kVm, PoolType::kEphemeral, 2, 0)
                   .has_value());
}

TEST(AsyncLendingCacheTest, FlushInvalidatesTheCachedCopy) {
  AsyncRig rig((comm::ClusterTopology()), async_on(8));
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_EQ(rig.broker.fabric().cache(0).size(), 1u);

  EXPECT_TRUE(rig.broker.port(0)->remote_flush(kVm, PoolType::kPersistent, 1,
                                               0));
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_EQ(rig.broker.fabric().cache(0).invalidations(), 1u);
  // No stale serve: the key is gone end to end.
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_get(kVm, PoolType::kPersistent, 1, 0)
                   .has_value());
}

TEST(AsyncLendingCacheTest, ObjectFlushAndReleaseInvalidateEveryEntry) {
  AsyncRig rig((comm::ClusterTopology()), async_on(8));
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 5,
                                               i, 100 + i));
  }
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kEphemeral, 6, 0, 200));
  ASSERT_EQ(rig.broker.fabric().cache(0).size(), 4u);

  EXPECT_EQ(rig.broker.port(0)->remote_flush_object(kVm, PoolType::kPersistent,
                                                    5),
            3u);
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 1u);
  EXPECT_EQ(rig.broker.port(0)->release_borrowed(16), 1u);  // the ephemeral
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_EQ(rig.broker.fabric().cache(0).invalidations(), 4u);
}

TEST(AsyncLendingCacheTest, DonorRecallInvalidatesTheCachedCopy) {
  AsyncRig rig((comm::ClusterTopology()), async_on(8));
  ASSERT_TRUE(
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_EQ(rig.broker.fabric().cache(0).size(), 1u);

  // Donor recalls its frames (quota grew back): the persistent page
  // migrates home and the borrower-side cached copy dies with the entry.
  EXPECT_EQ(rig.broker.recall_lent(1, 16), 1u);
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_EQ(rig.broker.fabric().cache(0).invalidations(), 1u);
  EXPECT_FALSE(rig.broker.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));

  // The page is now local: the cache must not resurrect the borrowed copy.
  const auto local = rig.borrower.frontswap_get(kVm, 1, 0);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(*local, 42u);
}

TEST(AsyncLendingCacheTest, CapacityZeroDisablesCleanly) {
  // cache_pages = 0 must behave exactly like "no cache at all": every get
  // still pays a fabric round trip, no cache counter ever moves, and the
  // cache has no effect on the fabric's Rng streams (the put exchanges of
  // a cached and an uncached rig draw identical latencies).
  AsyncRig off((comm::ClusterTopology()), async_on(0));
  AsyncRig on((comm::ClusterTopology()), async_on(8));

  for (AsyncRig* rig : {&off, &on}) {
    ASSERT_TRUE(
        rig->broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
    ASSERT_TRUE(rig->broker.port(0)
                    ->remote_get(kVm, PoolType::kPersistent, 1, 0)
                    .has_value());
  }
  // Same put exchange either way; the get crosses the fabric only when the
  // cache is off.
  EXPECT_EQ(off.totals().requests, 2u);
  EXPECT_EQ(on.totals().requests, 1u);
  EXPECT_GT(off.broker.port(0)->last_op_elapsed(), 0);
  EXPECT_EQ(on.broker.port(0)->last_op_elapsed(), 0);
  EXPECT_DOUBLE_EQ(off.totals().put_rtt_us.mean(),
                   on.totals().put_rtt_us.mean());
  EXPECT_EQ(off.broker.fabric().cache(0).hits(), 0u);
  EXPECT_EQ(off.broker.fabric().cache(0).misses(), 0u);
  EXPECT_EQ(off.broker.fabric().cache(0).insertions(), 0u);
  EXPECT_EQ(off.broker.fabric().cache(0).size(), 0u);
}

}  // namespace
}  // namespace smartmem::cluster
