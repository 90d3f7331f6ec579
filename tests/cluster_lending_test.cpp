// LendingBroker: cross-node placement against window credit, victim-cache
// semantics for ephemeral-typed borrows, flush forwarding, quota-driven
// release, recall migration, the barrier's lease/credit settlement (even
// split, entitlement shedding) and the donor-side lendable/entitlement
// arithmetic.
#include "cluster/lending.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hyper/hypervisor.hpp"
#include "sim/simulator.hpp"
#include "tmem/store.hpp"

namespace smartmem::cluster {
namespace {

using tmem::PoolType;

constexpr VmId kVm = 1;
constexpr PageCount kPhys = 64;
constexpr PageCount kLendable = kPhys / 2;

hyper::HypervisorConfig hyp_config(PageCount pages) {
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = pages;
  return cfg;
}

/// Two-node rig: node 0 borrows, node 1 donates. The donor's quota is set
/// to half its physical capacity — entitlement = min(quota, phys), and only
/// frames beyond the entitlement reserve are lendable, so an
/// unlimited-quota donor can never lend. One barrier leases the donor's
/// lendable frames as the borrower's placement credit.
class LendingBrokerTest : public ::testing::Test {
 protected:
  LendingBrokerTest()
      : borrower_(sim_, hyp_config(kPhys)),
        donor_(sim_, hyp_config(kPhys)),
        broker_({&borrower_, &donor_}) {
    borrower_.register_vm(kVm);
    donor_.register_vm(kVm);
    borrower_.set_remote_tmem(broker_.port(0));
    donor_.set_remote_tmem(broker_.port(1));
    donor_.set_node_quota(kPhys / 2);
    broker_.sync_window();
  }

  /// The lease invariant for this pair: every leased donor frame backs a
  /// borrowed page, sits as unused credit, or awaits settlement.
  void expect_lease_balanced() {
    EXPECT_EQ(donor_.lent_pages(), broker_.borrowed_total(0) +
                                       broker_.credit(0, 1) +
                                       broker_.unsettled_releases(0, 1));
  }

  sim::Simulator sim_;
  hyper::Hypervisor borrower_;
  hyper::Hypervisor donor_;
  LendingBroker broker_;
};

TEST_F(LendingBrokerTest, RequiresAtLeastTwoNodes) {
  EXPECT_THROW(LendingBroker({&borrower_}), std::invalid_argument);
}

TEST_F(LendingBrokerTest, BarrierLeasesEveryLendableFrameAsCredit) {
  EXPECT_EQ(donor_.lent_pages(), kLendable);
  EXPECT_EQ(donor_.lendable_pages(), 0u);
  EXPECT_EQ(broker_.credit(0, 1), kLendable);
  // The borrower's unlimited quota reserves all its frames: nothing flows
  // the other way.
  EXPECT_EQ(borrower_.lent_pages(), 0u);
  EXPECT_EQ(broker_.credit(1, 0), 0u);
  expect_lease_balanced();
}

TEST_F(LendingBrokerTest, NoCreditBeforeTheFirstBarrier) {
  LendingBroker fresh({&borrower_, &donor_});
  EXPECT_EQ(fresh.credit(0, 1), 0u);
  EXPECT_FALSE(fresh.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  EXPECT_EQ(fresh.failed_placements(), 1u);
}

TEST_F(LendingBrokerTest, DonorWithUnlimitedQuotaLendsNothing) {
  // The grown entitlement sheds the whole unused lease at the next barrier.
  donor_.set_node_quota(kUnlimitedTarget);
  broker_.sync_window();
  EXPECT_EQ(donor_.lendable_pages(), 0u);
  EXPECT_EQ(donor_.lent_pages(), 0u);
  EXPECT_EQ(broker_.credit(0, 1), 0u);
  EXPECT_FALSE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  EXPECT_EQ(broker_.borrow_placements(), 0u);
  EXPECT_EQ(broker_.recalls(), 0u);  // shedding credit recalls nothing
}

TEST_F(LendingBrokerTest, PersistentBorrowRoundTripsAndStays) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  EXPECT_EQ(broker_.credit(0, 1), kLendable - 1);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));

  // Persistent-typed pages survive gets: two hits, page still owned.
  for (int i = 0; i < 2; ++i) {
    const auto payload =
        broker_.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, 42u);
  }
  EXPECT_EQ(broker_.borrow_hits(), 2u);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 0u);
  expect_lease_balanced();
}

TEST_F(LendingBrokerTest, EphemeralBorrowIsAVictimCache) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 1, 0, 7));
  // The hit consumes the page: the index forgets and the frame is queued
  // for return to the donor.
  const auto hit = broker_.port(0)->remote_get(kVm, PoolType::kEphemeral, 1, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 7u);
  EXPECT_FALSE(broker_.port(0)->owns(kVm, PoolType::kEphemeral, 1, 0));
  EXPECT_EQ(broker_.borrowed_total(0), 0u);
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 1u);
  expect_lease_balanced();
  EXPECT_FALSE(
      broker_.port(0)->remote_get(kVm, PoolType::kEphemeral, 1, 0).has_value());
  EXPECT_EQ(broker_.borrow_misses(), 1u);

  // The barrier settles the release and hands the frame out again.
  broker_.sync_window();
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 0u);
  EXPECT_EQ(broker_.credit(0, 1), kLendable);
  expect_lease_balanced();
}

TEST_F(LendingBrokerTest, ReplacementPutStaysOnItsDonorWithoutNewFrame) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 43));
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  EXPECT_EQ(broker_.borrow_placements(), 1u);
  EXPECT_EQ(broker_.credit(0, 1), kLendable - 1);
  EXPECT_EQ(*broker_.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0),
            43u);
}

TEST_F(LendingBrokerTest, FlushQueuesReleasesAndFlushObjectIsRanged) {
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 5, i, 100 + i));
  }
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 6, 0, 200));
  EXPECT_EQ(broker_.credit(0, 1), kLendable - 4);

  EXPECT_TRUE(broker_.port(0)->remote_flush(kVm, PoolType::kPersistent, 5, 1));
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 1u);
  EXPECT_FALSE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 5, 1));

  // Object flush removes the rest of object 5 and nothing of object 6.
  EXPECT_EQ(broker_.port(0)->remote_flush_object(kVm, PoolType::kPersistent, 5),
            2u);
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 3u);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 6, 0));
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  expect_lease_balanced();

  // Only lease deltas move at the barrier: the three freed frames return
  // and are leased straight back as credit.
  broker_.sync_window();
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 0u);
  EXPECT_EQ(broker_.credit(0, 1), kLendable - 1);
  EXPECT_EQ(donor_.lent_pages(), kLendable);
  expect_lease_balanced();
}

TEST_F(LendingBrokerTest, ReleaseBorrowedDropsOnlyEphemeralEntries) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_TRUE(broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 0, 7));
  ASSERT_TRUE(broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 1, 8));

  EXPECT_EQ(broker_.port(0)->release_borrowed(16), 2u);
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));
  EXPECT_FALSE(broker_.port(0)->owns(kVm, PoolType::kEphemeral, 2, 0));
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 2u);
  expect_lease_balanced();
}

TEST_F(LendingBrokerTest, RecallMigratesPersistentPagesHome) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_TRUE(broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 0, 7));
  broker_.sync_window();  // the peak is sampled at barriers
  EXPECT_EQ(broker_.peak_borrowed(), 2u);

  // Donor's quota grew back: it recalls everything it lent. The ephemeral
  // entry is just dropped (victim cache); the persistent one is migrated
  // into the borrower's own store. Both frames leave the lease at once.
  EXPECT_EQ(broker_.recall_lent(1, 16), 2u);
  EXPECT_EQ(broker_.recalls(), 2u);
  EXPECT_EQ(broker_.recall_migrations(), 1u);
  EXPECT_EQ(broker_.borrowed_total(0), 0u);
  EXPECT_EQ(donor_.lent_pages(), kLendable - 2);
  expect_lease_balanced();

  // The migrated page now hits locally through the normal hypercall path.
  const auto local = borrower_.frontswap_get(kVm, 1, 0);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(*local, 42u);
}

TEST_F(LendingBrokerTest, EntitlementGrowthShedsCreditBeforeRecalling) {
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, i, 10 + i));
  }
  // Entitlement 40 leaves room to lend 24: the 8 surplus frames come out
  // of unused credit alone, and no borrowed page moves.
  donor_.set_node_quota(40);
  broker_.sync_window();
  EXPECT_EQ(donor_.lent_pages(), 24u);
  EXPECT_EQ(broker_.credit(0, 1), 21u);
  EXPECT_EQ(broker_.borrowed_total(0), 3u);
  EXPECT_EQ(broker_.recalls(), 0u);
  expect_lease_balanced();

  // Full entitlement: all credit goes, then the borrowed pages migrate.
  donor_.set_node_quota(kPhys);
  broker_.sync_window();
  EXPECT_EQ(donor_.lent_pages(), 0u);
  EXPECT_EQ(broker_.credit(0, 1), 0u);
  EXPECT_EQ(broker_.borrowed_total(0), 0u);
  EXPECT_EQ(broker_.recall_migrations(), 3u);
  expect_lease_balanced();
}

TEST_F(LendingBrokerTest, PlacementFailsOnceWindowCreditRunsOut) {
  donor_.set_node_quota(kPhys - 2);  // lends 2 frames
  broker_.sync_window();
  ASSERT_EQ(broker_.credit(0, 1), 2u);
  EXPECT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  EXPECT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 1, 43));
  EXPECT_FALSE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 2, 44));
  EXPECT_EQ(broker_.failed_placements(), 1u);
  expect_lease_balanced();
}

// The even split: every donor's pool divides evenly over the other nodes,
// the remainder going one frame each to the lowest borrower ids.
TEST(LendingSplitTest, RemainderGoesToLowestBorrowerIds) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<hyper::Hypervisor>> hyps;
  std::vector<hyper::Hypervisor*> ptrs;
  for (int i = 0; i < 4; ++i) {
    hyps.push_back(std::make_unique<hyper::Hypervisor>(sim, hyp_config(kPhys)));
    ptrs.push_back(hyps.back().get());
  }
  LendingBroker broker(ptrs);
  hyps[0]->set_node_quota(kPhys - 10);  // lends 10 to borrowers 1, 2, 3
  hyps[2]->set_node_quota(kPhys - 5);   // lends 5 to borrowers 0, 1, 3
  broker.sync_window();

  EXPECT_EQ(broker.credit(1, 0), 4u);
  EXPECT_EQ(broker.credit(2, 0), 3u);
  EXPECT_EQ(broker.credit(3, 0), 3u);
  EXPECT_EQ(broker.credit(0, 2), 2u);
  EXPECT_EQ(broker.credit(1, 2), 2u);
  EXPECT_EQ(broker.credit(3, 2), 1u);
  // Unlimited-quota nodes lend nothing, and nobody borrows from itself.
  for (NodeId b = 0; b < 4; ++b) {
    EXPECT_EQ(broker.credit(b, 1), 0u);
    EXPECT_EQ(broker.credit(b, 3), 0u);
    EXPECT_EQ(broker.credit(b, b), 0u);
  }
}

// End-to-end Algorithm 1 fallback: a physically full node below its quota
// sends the overflow put to a donor and reads it back at the remote tier.
TEST(LendingIntegrationTest, FullNodeBelowQuotaSpillsToDonor) {
  sim::Simulator sim;
  hyper::Hypervisor borrower(sim, hyp_config(8));
  hyper::Hypervisor donor(sim, hyp_config(kPhys));
  LendingBroker broker({&borrower, &donor});
  borrower.register_vm(kVm);
  donor.register_vm(kVm);
  borrower.set_remote_tmem(broker.port(0));
  donor.set_remote_tmem(broker.port(1));
  donor.set_node_quota(kPhys / 2);
  borrower.set_node_quota(12);  // quota > phys: entitled to donor frames
  broker.sync_window();

  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_EQ(borrower.frontswap_put(kVm, 1, i, 1000 + i),
              hyper::OpStatus::kSuccess);
  }
  EXPECT_EQ(borrower.remote_puts(), 0u);

  // Ninth page: store full, zero ephemerals to recycle, quota headroom left.
  tmem::Tier tier = tmem::Tier::kDram;
  ASSERT_EQ(borrower.frontswap_put(kVm, 1, 8, 1008, &tier),
            hyper::OpStatus::kSuccess);
  EXPECT_EQ(tier, tmem::Tier::kRemote);
  EXPECT_EQ(borrower.remote_puts(), 1u);
  EXPECT_EQ(broker.borrowed_total(0), 1u);
  EXPECT_EQ(broker.credit(0, 1), kLendable - 1);
  EXPECT_EQ(borrower.own_used_total(), 9u);

  const auto back = borrower.frontswap_get(kVm, 1, 8, &tier);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, 1008u);
  EXPECT_EQ(tier, tmem::Tier::kRemote);
  EXPECT_EQ(borrower.remote_gets(), 1u);

  // At the quota wall the remote fallback stops too.
  borrower.set_node_quota(9);
  EXPECT_EQ(borrower.frontswap_put(kVm, 1, 9, 1009),
            hyper::OpStatus::kNoCapacity);
}

}  // namespace
}  // namespace smartmem::cluster
