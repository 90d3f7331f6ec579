// Fault-model battery for the lending fabric (DESIGN §15).
//
// Part 1 is a seeded fuzz over the fault grid (loss x reorder x outage x
// cache capacity x seed) driving a 3-node rig through random
// put/get/flush/release/recall traffic, window barriers (sync_window) and
// donor quota changes against a model map. After every op it asserts the
// lease invariant of DESIGN §11: leased donor frames == borrowed pages +
// outstanding credit + unsettled releases, summed over the rack. After every
// barrier it asserts that no release is left unsettled and that each
// donor's credits are the even split of their sum, which a donor the
// barrier skipped by mistake would break. It also
// checks no page loss or duplication (every owned key serves exactly the
// model payload; a recalled persistent page reappears in the borrower's own
// store), and that every borrow terminates as placed, failed, or recalled —
// which the fabric's counter identities (requests == responses + timeouts,
// timeouts fully attributed to a fault, attempts fully attributed to
// success/retry/give-up) make checkable.
//
// Part 2 runs a lending-heavy fleet with the fabric in the loop: the
// fault-free run must actually borrow over the fabric, and a run with wire
// faults must reproduce itself byte for byte.
//
// Part 3 is the recall-vs-in-flight-borrow regression: a quota change that
// recalls pages while borrow completion timers are still pending must not
// crash, strand in-flight accounting, or leave a stale cache entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/fleet.hpp"
#include "cluster/lending.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
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

/// Three-node rig: node 0 borrows, nodes 1 and 2 donate half their
/// frames each. One barrier leases the donors' frames as credit, split
/// evenly over each donor's two borrowers.
struct FuzzRig {
  FuzzRig(const comm::ClusterTopology& topo, const AsyncLendingConfig& acfg)
      : borrower(sim, hyp_config(kPhys)),
        donor1(sim, hyp_config(kPhys)),
        donor2(sim, hyp_config(kPhys)),
        broker({&borrower, &donor1, &donor2}, topo, acfg) {
    for (hyper::Hypervisor* h : {&borrower, &donor1, &donor2}) {
      h->register_vm(kVm);
    }
    borrower.set_remote_tmem(broker.port(0));
    donor1.set_remote_tmem(broker.port(1));
    donor2.set_remote_tmem(broker.port(2));
    donor1.set_node_quota(kPhys / 2);
    donor2.set_node_quota(kPhys / 2);
    broker.sync_window();
  }

  hyper::Hypervisor& node(NodeId n) {
    return n == 0 ? borrower : (n == 1 ? donor1 : donor2);
  }

  sim::Simulator sim;
  hyper::Hypervisor borrower;
  hyper::Hypervisor donor1;
  hyper::Hypervisor donor2;
  LendingBroker broker;
};

/// DESIGN §11 lease invariant, summed over the rack: every leased frame
/// backs a borrowed page, is unused credit, or awaits settlement.
void check_lease_invariant(FuzzRig& rig) {
  PageCount leased = 0;
  PageCount accounted = 0;
  for (NodeId b = 0; b < 3; ++b) {
    leased += rig.node(b).lent_pages();
    accounted += rig.broker.borrowed_total(b);
    for (NodeId d = 0; d < 3; ++d) {
      accounted += rig.broker.credit(b, d) + rig.broker.unsettled_releases(b, d);
    }
  }
  ASSERT_EQ(leased, accounted);
}

/// What every barrier leaves behind: no unsettled release, and each donor's
/// credits are the even split of their sum over its borrowers, one extra
/// frame each to the lowest borrower ids.
void check_settled(FuzzRig& rig) {
  constexpr NodeId kNodes = 3;
  for (NodeId d = 0; d < kNodes; ++d) {
    PageCount pool = 0;
    for (NodeId b = 0; b < kNodes; ++b) {
      ASSERT_EQ(rig.broker.unsettled_releases(b, d), 0u)
          << "borrower " << b << " donor " << d;
      if (b != d) pool += rig.broker.credit(b, d);
    }
    PageCount extra = pool % (kNodes - 1);
    for (NodeId b = 0; b < kNodes; ++b) {
      if (b == d) continue;
      ASSERT_EQ(rig.broker.credit(b, d),
                pool / (kNodes - 1) + (extra > 0 ? 1 : 0))
          << "borrower " << b << " donor " << d;
      if (extra > 0) --extra;
    }
  }
}

struct FaultCase {
  double loss;
  double reorder;
  bool outage;
  PageCount cache;
};

/// The fabric's attempt bookkeeping must attribute every frame exactly
/// once, whatever the fault mix did to the run.
void check_counter_identities(const LendFabricStats& t) {
  ASSERT_EQ(t.requests, t.responses + t.timeouts);
  ASSERT_EQ(t.timeouts, t.lost_requests + t.lost_responses +
                            t.late_responses + t.outage_drops);
  ASSERT_EQ(t.requests, t.responses + t.retries + t.give_ups);
}

void fuzz_run(const FaultCase& fc, std::uint64_t seed) {
  SCOPED_TRACE(strfmt("loss=%.1f reorder=%.1f outage=%d cache=%llu seed=%llu",
                      fc.loss, fc.reorder, fc.outage ? 1 : 0,
                      static_cast<unsigned long long>(fc.cache),
                      static_cast<unsigned long long>(seed)));
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.loss_rate = fc.loss;
  topo.internode_lend_resp.faults.loss_rate = fc.loss / 2.0;
  topo.internode_lend_resp.faults.reorder_rate = fc.reorder;
  if (fc.outage) {
    topo.internode_lend_req.faults.down_from = 1 * kMillisecond;
    topo.internode_lend_req.faults.down_until = 5 * kMillisecond;
  }
  AsyncLendingConfig acfg;
  acfg.cache_pages = fc.cache;
  FuzzRig rig(topo, acfg);

  // Model of what the broker must own: borrowed key -> payload.
  std::map<RemoteKey, tmem::PagePayload> model;
  Rng rng(seed);

  auto random_key = [&rng] {
    const PoolType type =
        rng.chance(0.5) ? PoolType::kPersistent : PoolType::kEphemeral;
    return RemoteKey{kVm, type, 1 + rng.uniform(3),
                     static_cast<std::uint32_t>(rng.uniform(8))};
  };
  auto check_conservation = [&] {
    // Every model entry is owned and nothing else is.
    ASSERT_EQ(rig.broker.borrowed_total(0), model.size());
    check_lease_invariant(rig);
  };
  // Drops the model entries a recall took away. A recall may drop only
  // ephemeral (victim-cache) entries; a recalled persistent page must have
  // migrated home intact.
  auto reconcile_recalls = [&] {
    for (auto it = model.begin(); it != model.end();) {
      const RemoteKey& key = it->first;
      if (rig.broker.port(0)->owns(kVm, key.type, key.object, key.index)) {
        ++it;
        continue;
      }
      if (key.type == PoolType::kPersistent) {
        const hyper::TmemOp local =
            rig.borrower.get(kVm, PoolType::kPersistent, key.object, key.index);
        ASSERT_TRUE(local.ok());
        ASSERT_EQ(local.payload, it->second);
      }
      it = model.erase(it);
    }
  };

  for (int op = 0; op < 200; ++op) {
    const std::uint64_t kind = rng.uniform(100);
    if (kind < 45) {  // put (fresh placement or replacement)
      const RemoteKey key = random_key();
      const tmem::PagePayload payload = rng.next();
      const bool existed = model.contains(key);
      const bool ok = rig.broker.port(0)
                          ->remote_put(kVm, key.type, key.object, key.index,
                                       payload)
                          .ok();
      if (ok) {
        model[key] = payload;
      } else if (existed) {
        // A replacement lost to the fabric drops the whole entry so owns()
        // never vouches for a stale payload.
        model.erase(key);
      }
      ASSERT_EQ(rig.broker.port(0)->owns(kVm, key.type, key.object, key.index),
                model.contains(key));
    } else if (kind < 62) {  // get: exact payload, ephemeral consumed
      const RemoteKey key = random_key();
      const hyper::TmemOp got =
          rig.broker.port(0)->remote_get(kVm, key.type, key.object, key.index);
      auto it = model.find(key);
      if (it != model.end()) {
        ASSERT_TRUE(got.ok());                // persistent gets may never fail
        ASSERT_EQ(got.payload, it->second);  // no corruption, no duplication
        if (key.type == PoolType::kEphemeral) model.erase(it);
      } else {
        ASSERT_EQ(got.status, hyper::OpStatus::kNotFound);
      }
    } else if (kind < 70) {  // flush one page
      const RemoteKey key = random_key();
      const bool ok = rig.broker.port(0)->remote_flush(kVm, key.type,
                                                       key.object, key.index);
      ASSERT_EQ(ok, model.contains(key));
      model.erase(key);
    } else if (kind < 74) {  // flush a whole object
      const PoolType type =
          rng.chance(0.5) ? PoolType::kPersistent : PoolType::kEphemeral;
      const std::uint64_t object = 1 + rng.uniform(3);
      const PageCount flushed =
          rig.broker.port(0)->remote_flush_object(kVm, type, object);
      PageCount expected = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (it->first.type == type && it->first.object == object) {
          it = model.erase(it);
          ++expected;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(flushed, expected);
    } else if (kind < 78) {  // quota-style release of ephemeral borrows
      const PageCount max = 1 + rng.uniform(8);
      const PageCount released = rig.broker.port(0)->release_borrowed(max);
      // Mirror the broker: ephemeral-typed entries die in key order.
      PageCount expected = 0;
      for (auto it = model.begin(); it != model.end() && expected < max;) {
        if (it->first.type == PoolType::kEphemeral) {
          it = model.erase(it);
          ++expected;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(released, expected);
    } else if (kind < 82) {  // donor-side recall
      const NodeId donor = rng.chance(0.5) ? 1 : 2;
      rig.broker.recall_lent(donor, 1 + rng.uniform(8));
      reconcile_recalls();
    } else if (kind < 88) {  // window barrier: settle, shed/recall, re-lease
      rig.broker.sync_window();
      reconcile_recalls();
      if (::testing::Test::HasFatalFailure()) return;
      check_settled(rig);
    } else if (kind < 91) {  // donor quota change, applied at the barrier
      const NodeId donor = rng.chance(0.5) ? 1 : 2;
      rig.node(donor).set_node_quota(
          rng.chance(0.2) ? kUnlimitedTarget : kPhys / 4 + rng.uniform(kPhys));
    } else {  // let simulated time pass (crosses the outage window)
      rig.sim.run_until(rig.sim.now() +
                        static_cast<SimTime>(rng.uniform_range(50, 500)) *
                            kMicrosecond);
    }
    if (::testing::Test::HasFatalFailure()) return;
    check_lease_invariant(rig);
    if (::testing::Test::HasFatalFailure()) return;
    if (op % 16 == 0) {
      check_conservation();
      check_counter_identities(rig.broker.fabric().totals());
    }
  }

  // Every borrow terminated: drain the completion timers, then the books
  // must balance exactly.
  rig.sim.run();
  ASSERT_EQ(rig.broker.fabric().in_flight(0), 0u);
  check_conservation();
  check_counter_identities(rig.broker.fabric().totals());
  const LendFabricStats t = rig.broker.fabric().totals();
  if (fc.loss >= 1.0) {
    ASSERT_EQ(t.responses, 0u);  // nothing ever crossed a dead wire
    ASSERT_TRUE(model.empty());
  }
}

TEST(AsyncLendingPropertyTest, FaultGridFuzzPreservesBrokerInvariants) {
  const std::vector<FaultCase> grid = {
      {0.0, 0.0, false, 0},  {0.0, 0.0, false, 8}, {0.3, 0.0, false, 8},
      {0.3, 0.5, false, 0},  {0.3, 0.5, true, 8},  {1.0, 0.0, false, 8},
      {0.0, 0.5, true, 0},   {1.0, 0.5, true, 8},
  };
  for (const FaultCase& fc : grid) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      fuzz_run(fc, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---- Part 2: lending-heavy fleets with the fabric in the loop -------------

std::string serialize(const FleetRunResult& r) {
  std::string out = strfmt(
      "makespan=%.9f failed=%llu total=%llu succ=%llu nodeb=%llu rackb=%llu\n",
      r.makespan_s, static_cast<unsigned long long>(r.aggregate_failed_puts),
      static_cast<unsigned long long>(r.puts_total),
      static_cast<unsigned long long>(r.puts_succ),
      static_cast<unsigned long long>(r.node_control_bytes),
      static_cast<unsigned long long>(r.rack_control_bytes));
  out += strfmt(
      "borrow=%llu bfail=%llu bhits=%llu bmiss=%llu recalls=%llu brepl=%llu\n",
      static_cast<unsigned long long>(r.borrow_placements),
      static_cast<unsigned long long>(r.lending_failed_placements),
      static_cast<unsigned long long>(r.borrow_hits),
      static_cast<unsigned long long>(r.borrow_misses),
      static_cast<unsigned long long>(r.lending_recalls),
      static_cast<unsigned long long>(r.lending_failed_replacements));
  out += strfmt(
      "freq=%llu fret=%llu ftmo=%llu fgup=%llu fcng=%llu ffbk=%llu fcan=%llu\n",
      static_cast<unsigned long long>(r.fabric_requests),
      static_cast<unsigned long long>(r.fabric_retries),
      static_cast<unsigned long long>(r.fabric_timeouts),
      static_cast<unsigned long long>(r.fabric_give_ups),
      static_cast<unsigned long long>(r.fabric_congestion_drops),
      static_cast<unsigned long long>(r.fabric_get_fallbacks),
      static_cast<unsigned long long>(r.fabric_cancelled_timers));
  out += strfmt(
      "chit=%llu cmiss=%llu cinv=%llu prtt=%.9f grtt=%.9f gcnt=%llu\n",
      static_cast<unsigned long long>(r.cache_hits),
      static_cast<unsigned long long>(r.cache_misses),
      static_cast<unsigned long long>(r.cache_invalidations), r.put_rtt_mean_us,
      r.get_rtt_mean_us, static_cast<unsigned long long>(r.get_rtt_count));
  return out;
}

FleetExperimentConfig lending_fleet(bool flaky) {
  FleetExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.vms_per_node = 4;
  cfg.scale = 0.0625;
  cfg.seed = 42;
  cfg.resync_every = 16;
  cfg.lending_heavy = true;
  cfg.lending_async.cache_pages = 64;
  if (flaky) {
    cfg.lend_fault.loss_rate = 0.05;
    cfg.lend_fault.reorder_rate = 0.10;
  }
  return cfg;
}

TEST(AsyncLendingPropertyTest, LendingHeavyFleetBorrowsOverFabric) {
  const FleetRunResult r = run_fleet_scenario(lending_fleet(false));
  ASSERT_GT(r.borrow_placements, 0u);
  ASSERT_GT(r.fabric_requests, 0u);
}

TEST(AsyncLendingPropertyTest, FleetRunRepeatsUnderWireFaults) {
  const FleetRunResult r = run_fleet_scenario(lending_fleet(true));
  // The faults must bite for the comparison to cover the retry paths.
  ASSERT_GT(r.fabric_retries, 0u);
  EXPECT_EQ(serialize(run_fleet_scenario(lending_fleet(true))), serialize(r));
}

// ---- Part 3: recall-on-quota-shrink races an in-flight borrow -------------

TEST(AsyncLendingPropertyTest, RecallWhileBorrowTimersInFlight) {
  AsyncLendingConfig acfg;
  acfg.cache_pages = 8;
  FuzzRig rig((comm::ClusterTopology()), acfg);

  // Several placements leave completion timers pending on the fabric.
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(rig.broker.port(0)
                    ->remote_put(kVm, PoolType::kPersistent, 1, i, 100 + i)
                    .ok());
  }
  ASSERT_GT(rig.broker.fabric().in_flight(0), 0u);

  // Both donors take their whole capacity back: the barrier sheds every
  // unused credit and recalls everything borrowed, mid-flight.
  rig.donor1.set_node_quota(kPhys);
  rig.donor2.set_node_quota(kPhys);
  rig.broker.sync_window();
  EXPECT_EQ(rig.broker.recalls(), 4u);
  EXPECT_EQ(rig.broker.recall_migrations(), 4u);
  EXPECT_EQ(rig.broker.borrowed_total(0), 0u);
  EXPECT_EQ(rig.donor1.lent_pages() + rig.donor2.lent_pages(), 0u);
  check_lease_invariant(rig);
  // The borrower cache cannot outlive the entries it mirrored.
  EXPECT_EQ(rig.broker.fabric().cache(0).size(), 0u);

  // The stale completion timers fire harmlessly and the window drains.
  rig.sim.run();
  EXPECT_EQ(rig.broker.fabric().in_flight(0), 0u);

  // Recalled pages migrated home intact.
  for (std::uint32_t i = 0; i < 4; ++i) {
    const hyper::TmemOp local =
        rig.borrower.get(kVm, PoolType::kPersistent, 1, i);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(local.payload, 100u + i);
  }
}

}  // namespace
}  // namespace smartmem::cluster
