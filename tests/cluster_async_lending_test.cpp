// The lending data plane (DESIGN §15): fabric round trips with donor-side
// queueing, the full fault surface (loss, reorder, outage mid-borrow),
// timeout/retry with a deterministic give-up, exchanges that start at the
// borrower's own clock and schedule no simulator event, and the
// borrower-side BorrowCache (hit/miss accounting, invalidation on flush and
// donor recall, capacity-0 no-op contract).
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
  const hyper::TmemOp put =
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.tier, tmem::Tier::kRemote);
  EXPECT_EQ(put.fabric, 2 * kHop + kService);

  const hyper::TmemOp got =
      rig.broker.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.payload, 42u);
  EXPECT_EQ(got.tier, tmem::Tier::kRemote);
  // The get queues behind the put still occupying the donor (same sim
  // instant): service starts at the put's donor_next_free.
  EXPECT_EQ(got.fabric, 2 * kHop + 2 * kService);

  const LendFabricStats t = rig.totals();
  EXPECT_EQ(t.requests, 2u);
  EXPECT_EQ(t.responses, 2u);
  EXPECT_EQ(t.give_ups, 0u);
  EXPECT_EQ(t.put_rtt_us.count(), 1u);
  EXPECT_EQ(t.get_rtt_us.count(), 1u);
  EXPECT_GT(t.req_bytes, 0u);
  EXPECT_GT(t.resp_bytes, 0u);
}

/// Borrower and donor on separate simulators, as in a sharded cluster: the
/// broker takes each node's simulator from its hypervisor.
struct TwoClockRig {
  explicit TwoClockRig(const comm::ClusterTopology& topo)
      : borrower(borrower_sim, hyp_config(kPhys)),
        donor(donor_sim, hyp_config(kPhys)),
        broker({&borrower, &donor}, topo) {
    donor.set_node_quota(kPhys / 2);
    broker.sync_window();
  }

  sim::Simulator borrower_sim;
  sim::Simulator donor_sim;
  hyper::Hypervisor borrower;
  hyper::Hypervisor donor;
  LendingBroker broker;
};

// An exchange starts at the borrower's clock, not the donor's: with the
// borrower at 3 ms and the donor still at 0, a request-hop outage over
// [0, 1 ms) lies in the borrower's past, so the put is fault-free and costs
// exactly one round trip on an idle pair.
TEST(AsyncLendingTest, RoundTripIsTimedFromTheBorrowersClock) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.down_from = 0;
  topo.internode_lend_req.faults.down_until = 1 * kMillisecond;
  TwoClockRig rig(topo);
  rig.borrower_sim.run_until(3 * kMillisecond);
  ASSERT_EQ(rig.donor_sim.now(), 0);

  const hyper::TmemOp put =
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.fabric, 2 * kHop + kService);
  EXPECT_EQ(rig.broker.fabric().totals().outage_drops, 0u);
}

// A borrow is a synchronous hypercall: put, get and flush compute their
// exchange in place and leave both event queues as they found them, even
// when every attempt times out.
TEST(AsyncLendingTest, BorrowsScheduleNoSimulatorEvent) {
  comm::ClusterTopology lossy;
  lossy.internode_lend_req.faults.loss_rate = 1.0;
  for (const comm::ClusterTopology& topo : {comm::ClusterTopology(), lossy}) {
    const bool lost = topo.internode_lend_req.faults.loss_rate > 0.0;
    SCOPED_TRACE(lost ? "100 % request loss" : "fault-free");
    TwoClockRig rig(topo);
    const std::size_t borrower_events = rig.borrower_sim.pending_events();
    const std::size_t donor_events = rig.donor_sim.pending_events();

    hyper::RemoteTmem* port = rig.broker.port(0);
    const hyper::TmemOp put =
        port->remote_put(kVm, PoolType::kPersistent, 1, 0, 42);
    EXPECT_EQ(put.ok(), !lost);
    const hyper::TmemOp got = port->remote_get(kVm, PoolType::kPersistent, 1, 0);
    EXPECT_EQ(got.ok(), !lost);
    EXPECT_EQ(port->remote_flush(kVm, PoolType::kPersistent, 1, 0), !lost);
    if (lost) {
      EXPECT_EQ(put.fabric, kLendMaxAttempts * kLendTimeout);
      EXPECT_EQ(rig.broker.fabric().totals().timeouts, kLendMaxAttempts);
    }

    EXPECT_EQ(rig.borrower_sim.pending_events(), borrower_events);
    EXPECT_EQ(rig.donor_sim.pending_events(), donor_events);
  }
}

TEST(AsyncLendingTest, DonorQueueSerializesBackToBackExchanges) {
  AsyncRig rig((comm::ClusterTopology()), async_on());
  SimTime prev = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const hyper::TmemOp put = rig.broker.port(0)->remote_put(
        kVm, PoolType::kPersistent, 1, i, 100 + i);
    ASSERT_TRUE(put.ok());
    EXPECT_GT(put.fabric, prev);  // each put waits behind the previous service
    prev = put.fabric;
  }
  // Exactly one service-time step per queued exchange.
  EXPECT_EQ(prev, 2 * kHop + 3 * kService);
}

TEST(AsyncLendingTest, TotalRequestLossExhaustsAttemptsIntoAFailedPut) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.loss_rate = 1.0;
  AsyncRig rig(topo, async_on());

  const hyper::TmemOp put =
      rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42);
  EXPECT_EQ(put.status, hyper::OpStatus::kNoCapacity);
  EXPECT_EQ(rig.broker.failed_placements(), 1u);
  EXPECT_EQ(rig.broker.borrow_placements(), 0u);
  EXPECT_EQ(rig.broker.credit(0, 1), kPhys / 2);  // no credit consumed
  // The guest pays the full retry budget: every attempt's timeout.
  EXPECT_EQ(put.fabric, kLendMaxAttempts * kLendTimeout);

  const LendFabricStats t = rig.totals();
  EXPECT_EQ(t.requests, kLendMaxAttempts);
  EXPECT_EQ(t.retries, kLendMaxAttempts - 1);
  EXPECT_EQ(t.timeouts, kLendMaxAttempts);
  EXPECT_EQ(t.lost_requests, kLendMaxAttempts);
  EXPECT_EQ(t.give_ups, 1u);
  EXPECT_EQ(t.responses, 0u);
}

TEST(AsyncLendingTest, ResponseLossTimesOutTheBorrowerToo) {
  comm::ClusterTopology topo;
  topo.internode_lend_resp.faults.loss_rate = 1.0;
  AsyncRig rig(topo, async_on());
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                   .ok());
  const LendFabricStats t = rig.totals();
  EXPECT_EQ(t.lost_responses, kLendMaxAttempts);
  EXPECT_EQ(t.give_ups, 1u);
}

TEST(AsyncLendingTest, ReorderedLateResponseIsIndistinguishableFromLoss) {
  comm::ClusterTopology topo;
  // Every response draws the reorder penalty; the default reorder_extra
  // (10 ms) pushes it past the 2 ms attempt timeout.
  topo.internode_lend_resp.faults.reorder_rate = 1.0;
  AsyncRig rig(topo, async_on());
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                   .ok());
  const LendFabricStats t = rig.totals();
  EXPECT_EQ(t.late_responses, kLendMaxAttempts);
  EXPECT_EQ(t.reordered, kLendMaxAttempts);
  EXPECT_EQ(t.give_ups, 1u);
}

TEST(AsyncLendingTest, OutageWindowFailsBorrowsInsideItOnly) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.down_from = 1 * kMillisecond;
  topo.internode_lend_req.faults.down_until = 100 * kMillisecond;
  AsyncRig rig(topo, async_on());

  // Before the window: clean round trip.
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                  .ok());

  // Inside the window: every attempt's send is dropped on the floor.
  rig.sim.run_until(2 * kMillisecond);
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_put(kVm, PoolType::kPersistent, 1, 1, 43)
                   .ok());
  EXPECT_EQ(rig.totals().outage_drops, kLendMaxAttempts);
  EXPECT_EQ(rig.totals().give_ups, 1u);

  // After the window: service resumes.
  rig.sim.run_until(200 * kMillisecond);
  EXPECT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 2, 44)
                  .ok());
  EXPECT_EQ(rig.broker.borrow_placements(), 2u);
}

TEST(AsyncLendingTest, PersistentGetGiveUpFallsBackSynchronously) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.down_from = 1 * kMillisecond;
  topo.internode_lend_req.faults.down_until = 100 * kMillisecond;
  AsyncRig rig(topo, async_on());
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                  .ok());

  // The transport is down but the guest holds its only copy remotely: the
  // broker must still produce the page, charging the retry budget.
  rig.sim.run_until(2 * kMillisecond);
  const hyper::TmemOp got =
      rig.broker.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.payload, 42u);
  EXPECT_EQ(rig.totals().get_fallbacks, 1u);
  EXPECT_EQ(got.fabric, kLendMaxAttempts * kLendTimeout);
}

TEST(AsyncLendingTest, FailedReplacementDropsTheEntrySoOwnsNeverLies) {
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.down_from = 1 * kMillisecond;
  topo.internode_lend_req.faults.down_until = 100 * kMillisecond;
  AsyncRig rig(topo, async_on(8));
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                  .ok());
  ASSERT_TRUE(rig.broker.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));

  // The replacement put never reaches the donor: the stale copy must not
  // survive anywhere — not in the index, not at the donor, not in the cache.
  rig.sim.run_until(2 * kMillisecond);
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_put(kVm, PoolType::kPersistent, 1, 0, 43)
                   .ok());
  EXPECT_EQ(rig.broker.failed_replacements(), 1u);
  EXPECT_FALSE(rig.broker.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));
  EXPECT_EQ(rig.broker.borrowed_total(0), 0u);
  EXPECT_EQ(rig.broker.unsettled_releases(0, 1), 1u);  // stale frame freed
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_get(kVm, PoolType::kPersistent, 1, 0)
                   .ok());
  // A failed replacement is transport loss, not donor shortage.
  EXPECT_EQ(rig.broker.failed_placements(), 0u);
}

// The fabric models neither duplication nor a queue on either hop: a
// topology that sets a duplication rate, a queue capacity or the
// drop-oldest policy is refused instead of silently ignored.
TEST(AsyncLendingTest, RejectsHopFieldsTheFabricDoesNotModel) {
  sim::Simulator sim;
  const std::vector<sim::Simulator*> sims = {&sim, &sim};
  comm::ClusterTopology dup_req;
  dup_req.internode_lend_req.faults.duplication_rate = 0.1;
  EXPECT_THROW(LendFabric(dup_req, async_on(), sims), std::invalid_argument);
  comm::ClusterTopology dup_resp;
  dup_resp.internode_lend_resp.faults.duplication_rate = 0.1;
  EXPECT_THROW(LendFabric(dup_resp, async_on(), sims), std::invalid_argument);
  comm::ClusterTopology req_queue;
  req_queue.internode_lend_req.queue_capacity = 4;
  EXPECT_THROW(LendFabric(req_queue, async_on(), sims), std::invalid_argument);
  comm::ClusterTopology resp_queue;
  resp_queue.internode_lend_resp.queue_capacity = 4;
  EXPECT_THROW(LendFabric(resp_queue, async_on(), sims),
               std::invalid_argument);
  comm::ClusterTopology req_oldest;
  req_oldest.internode_lend_req.queue_policy = comm::QueuePolicy::kDropOldest;
  EXPECT_THROW(LendFabric(req_oldest, async_on(), sims),
               std::invalid_argument);
  comm::ClusterTopology resp_oldest;
  resp_oldest.internode_lend_resp.queue_policy = comm::QueuePolicy::kDropOldest;
  EXPECT_THROW(LendFabric(resp_oldest, async_on(), sims),
               std::invalid_argument);
  EXPECT_NO_THROW(LendFabric(comm::ClusterTopology(), async_on(), sims));
  // The broker builds its fabric in its constructor, so it refuses too.
  hyper::Hypervisor a(sim, hyp_config(kPhys));
  hyper::Hypervisor b(sim, hyp_config(kPhys));
  EXPECT_THROW(LendingBroker({&a, &b}, dup_resp, async_on()),
               std::invalid_argument);
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
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                  .ok());

  // The put populated the cache: the get never crosses the fabric.
  const hyper::TmemOp got =
      rig.broker.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.payload, 42u);
  EXPECT_EQ(got.tier, tmem::Tier::kRemote);
  EXPECT_EQ(got.fabric, 0);
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
      rig.broker.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 0, 7).ok());
  ASSERT_EQ(rig.broker.credit(0, 1), kPhys / 2 - 1);

  // The cache hit consumes the borrowed page exactly like a fabric hit
  // would: fire-and-forget invalidate, donor frame freed, index forgets.
  const hyper::TmemOp hit =
      rig.broker.port(0)->remote_get(kVm, PoolType::kEphemeral, 2, 0);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.payload, 7u);
  EXPECT_EQ(hit.fabric, 0);
  EXPECT_GE(rig.totals().invalidates, 1u);
  EXPECT_EQ(rig.broker.unsettled_releases(0, 1), 1u);
  EXPECT_FALSE(rig.broker.port(0)->owns(kVm, PoolType::kEphemeral, 2, 0));
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_get(kVm, PoolType::kEphemeral, 2, 0)
                   .ok());
}

TEST(AsyncLendingCacheTest, FlushInvalidatesTheCachedCopy) {
  AsyncRig rig((comm::ClusterTopology()), async_on(8));
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                  .ok());
  ASSERT_EQ(rig.broker.fabric().cache(0).size(), 1u);

  EXPECT_TRUE(rig.broker.port(0)->remote_flush(kVm, PoolType::kPersistent, 1,
                                               0));
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_EQ(rig.broker.fabric().cache(0).invalidations(), 1u);
  // No stale serve: the key is gone end to end.
  EXPECT_FALSE(rig.broker.port(0)
                   ->remote_get(kVm, PoolType::kPersistent, 1, 0)
                   .ok());
}

TEST(AsyncLendingCacheTest, FlushAndReleaseInvalidateEveryEntry) {
  AsyncRig rig((comm::ClusterTopology()), async_on(8));
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.broker.port(0)
                    ->remote_put(kVm, PoolType::kPersistent, 5, i, 100 + i)
                    .ok());
  }
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kEphemeral, 6, 0, 200)
                  .ok());
  ASSERT_EQ(rig.broker.fabric().cache(0).size(), 4u);

  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        rig.broker.port(0)->remote_flush(kVm, PoolType::kPersistent, 5, i));
  }
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 1u);
  EXPECT_EQ(rig.broker.port(0)->release_borrowed(16), 1u);  // the ephemeral
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_EQ(rig.broker.fabric().cache(0).invalidations(), 4u);
}

TEST(AsyncLendingCacheTest, DonorRecallInvalidatesTheCachedCopy) {
  AsyncRig rig((comm::ClusterTopology()), async_on(8));
  ASSERT_TRUE(rig.broker.port(0)
                  ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                  .ok());
  ASSERT_EQ(rig.broker.fabric().cache(0).size(), 1u);

  // Donor recalls its frames (quota grew back): the persistent page
  // migrates home and the borrower-side cached copy dies with the entry.
  EXPECT_EQ(rig.broker.recall_lent(1, 16), 1u);
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);
  EXPECT_EQ(rig.broker.fabric().cache(0).invalidations(), 1u);
  EXPECT_FALSE(rig.broker.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));

  // The page is now local: the cache must not resurrect the borrowed copy.
  const hyper::TmemOp local =
      rig.borrower.get(kVm, PoolType::kPersistent, 1, 0);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.payload, 42u);
  EXPECT_EQ(local.tier, tmem::Tier::kDram);
}

TEST(AsyncLendingCacheTest, CapacityZeroDisablesCleanly) {
  // cache_pages = 0 must behave exactly like "no cache at all": every get
  // still pays a fabric round trip, no cache counter ever moves, and the
  // cache has no effect on the fabric's Rng streams (the put exchanges of
  // a cached and an uncached rig draw identical latencies).
  AsyncRig off((comm::ClusterTopology()), async_on(0));
  AsyncRig on((comm::ClusterTopology()), async_on(8));

  const auto put_then_get = [](AsyncRig& rig) {
    EXPECT_TRUE(rig.broker.port(0)
                    ->remote_put(kVm, PoolType::kPersistent, 1, 0, 42)
                    .ok());
    const hyper::TmemOp got =
        rig.broker.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.payload, 42u);
    return got.fabric;
  };
  const SimTime off_get = put_then_get(off);
  const SimTime on_get = put_then_get(on);
  // Same put exchange either way; the get crosses the fabric only when the
  // cache is off.
  EXPECT_EQ(off.totals().requests, 2u);
  EXPECT_EQ(on.totals().requests, 1u);
  EXPECT_GT(off_get, 0);
  EXPECT_EQ(on_get, 0);
  EXPECT_DOUBLE_EQ(off.totals().put_rtt_us.mean(),
                   on.totals().put_rtt_us.mean());
  EXPECT_EQ(off.broker.fabric().cache(0).hits(), 0u);
  EXPECT_EQ(off.broker.fabric().cache(0).misses(), 0u);
  EXPECT_EQ(off.broker.fabric().cache(0).insertions(), 0u);
  EXPECT_EQ(off.broker.fabric().cache(0).size(), 0u);
}

}  // namespace
}  // namespace smartmem::cluster
