// LendingBroker: cross-node placement against window credit, victim-cache
// semantics for ephemeral-typed borrows, flush forwarding, quota-driven
// release, recall migration, the barrier's lease/credit settlement (even
// split, entitlement shedding) and the donor-side lendable/entitlement
// arithmetic.
#include "cluster/lending.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "comm/topology.hpp"
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

// The fabric is the only data plane: a config that asks for none is an
// error, not a silent fallback.
TEST_F(LendingBrokerTest, RejectsDisabledFabricConfig) {
  AsyncLendingConfig off;
  off.enabled = false;
  EXPECT_THROW(LendingBroker({&borrower_, &donor_}, comm::ClusterTopology(),
                             off),
               std::invalid_argument);
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
  EXPECT_FALSE(
      fresh.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42).ok());
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
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42).ok());
  EXPECT_EQ(broker_.borrow_placements(), 0u);
  EXPECT_EQ(broker_.recalls(), 0u);  // shedding credit recalls nothing
}

TEST_F(LendingBrokerTest, PersistentBorrowRoundTripsAndStays) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42).ok());
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  EXPECT_EQ(broker_.credit(0, 1), kLendable - 1);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));

  // Persistent-typed pages survive gets: two hits, page still owned.
  for (int i = 0; i < 2; ++i) {
    const hyper::TmemOp got =
        broker_.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.payload, 42u);
    EXPECT_EQ(got.tier, tmem::Tier::kRemote);
  }
  EXPECT_EQ(broker_.borrow_hits(), 2u);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 0u);
  expect_lease_balanced();
}

TEST_F(LendingBrokerTest, EphemeralBorrowIsAVictimCache) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 1, 0, 7).ok());
  // The hit consumes the page: the index forgets and the frame is queued
  // for return to the donor.
  const hyper::TmemOp hit =
      broker_.port(0)->remote_get(kVm, PoolType::kEphemeral, 1, 0);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.payload, 7u);
  EXPECT_FALSE(broker_.port(0)->owns(kVm, PoolType::kEphemeral, 1, 0));
  EXPECT_EQ(broker_.borrowed_total(0), 0u);
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 1u);
  expect_lease_balanced();
  EXPECT_EQ(broker_.port(0)->remote_get(kVm, PoolType::kEphemeral, 1, 0).status,
            hyper::OpStatus::kNotFound);
  EXPECT_EQ(broker_.borrow_misses(), 1u);

  // The barrier settles the release and hands the frame out again.
  broker_.sync_window();
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 0u);
  EXPECT_EQ(broker_.credit(0, 1), kLendable);
  expect_lease_balanced();
}

TEST_F(LendingBrokerTest, ReplacementPutStaysOnItsDonorWithoutNewFrame) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42).ok());
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 43).ok());
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  EXPECT_EQ(broker_.borrow_placements(), 1u);
  EXPECT_EQ(broker_.credit(0, 1), kLendable - 1);
  const hyper::TmemOp got =
      broker_.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.payload, 43u);
}

TEST_F(LendingBrokerTest, FlushQueuesReleasesAndFlushObjectIsRanged) {
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(broker_.port(0)
                    ->remote_put(kVm, PoolType::kPersistent, 5, i, 100 + i)
                    .ok());
  }
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 6, 0, 200).ok());
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
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42).ok());
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 0, 7).ok());
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 1, 8).ok());

  EXPECT_EQ(broker_.port(0)->release_borrowed(16), 2u);
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));
  EXPECT_FALSE(broker_.port(0)->owns(kVm, PoolType::kEphemeral, 2, 0));
  EXPECT_EQ(broker_.unsettled_releases(0, 1), 2u);
  expect_lease_balanced();
}

// A window whose only activity against a donor is a release must still be
// settled by the next barrier. The donor is otherwise clean: nobody charged
// it, it has no lendable frame and its lease is within its cap.
TEST_F(LendingBrokerTest, ReleaseOnlyWindowIsSettledAtTheNextBarrier) {
  hyper::RemoteTmem& port = *broker_.port(0);
  ASSERT_TRUE(port.remote_put(kVm, PoolType::kPersistent, 1, 0, 10).ok());
  ASSERT_TRUE(port.remote_put(kVm, PoolType::kPersistent, 2, 0, 20).ok());
  ASSERT_TRUE(port.remote_put(kVm, PoolType::kPersistent, 2, 1, 21).ok());
  ASSERT_TRUE(port.remote_put(kVm, PoolType::kEphemeral, 3, 0, 30).ok());
  ASSERT_TRUE(port.remote_put(kVm, PoolType::kEphemeral, 4, 0, 40).ok());
  broker_.sync_window();

  struct Release {
    const char* name;
    std::function<void()> run;
  };
  const Release releases[] = {
      {"flush", [&] { port.remote_flush(kVm, PoolType::kPersistent, 1, 0); }},
      {"object flush",
       [&] { port.remote_flush_object(kVm, PoolType::kPersistent, 2); }},
      {"ephemeral-hit consume",
       [&] { (void)port.remote_get(kVm, PoolType::kEphemeral, 3, 0); }},
      {"release_borrowed", [&] { port.release_borrowed(1); }},
  };
  for (const Release& release : releases) {
    SCOPED_TRACE(release.name);
    ASSERT_EQ(donor_.lendable_pages(), 0u);
    const PageCount before = broker_.borrowed_total(0);
    release.run();
    ASSERT_LT(broker_.borrowed_total(0), before);
    ASSERT_GT(broker_.unsettled_releases(0, 1), 0u);
    broker_.sync_window();
    EXPECT_EQ(broker_.unsettled_releases(0, 1), 0u);
    EXPECT_EQ(broker_.credit(0, 1), kLendable - broker_.borrowed_total(0));
    EXPECT_EQ(donor_.lent_pages(), kLendable);
    expect_lease_balanced();
  }
  EXPECT_EQ(broker_.borrowed_total(0), 0u);
}

TEST_F(LendingBrokerTest, RecallMigratesPersistentPagesHome) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42).ok());
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 0, 7).ok());
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
  const hyper::TmemOp local = borrower_.get(kVm, PoolType::kPersistent, 1, 0);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.payload, 42u);
  EXPECT_EQ(local.tier, tmem::Tier::kDram);
}

TEST_F(LendingBrokerTest, EntitlementGrowthShedsCreditBeforeRecalling) {
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(broker_.port(0)
                    ->remote_put(kVm, PoolType::kPersistent, 1, i, 10 + i)
                    .ok());
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
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42).ok());
  EXPECT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 1, 43).ok());
  EXPECT_FALSE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 2, 44).ok());
  EXPECT_EQ(broker_.failed_placements(), 1u);
  expect_lease_balanced();
}

/// Four-node rack: node 0 lends 10 frames to borrowers 1, 2 and 3, and
/// node 2 lends 5 to borrowers 0, 1 and 3. Nodes 1 and 3 keep an unlimited
/// quota and lend nothing.
class LendingSplitTest : public ::testing::Test {
 protected:
  LendingSplitTest() {
    std::vector<hyper::Hypervisor*> ptrs;
    for (int i = 0; i < 4; ++i) {
      hyps_.push_back(
          std::make_unique<hyper::Hypervisor>(sim_, hyp_config(kPhys)));
      ptrs.push_back(hyps_.back().get());
    }
    broker_ = std::make_unique<LendingBroker>(ptrs);
    hyps_[0]->set_node_quota(kPhys - 10);
    hyps_[2]->set_node_quota(kPhys - 5);
    broker_->sync_window();
  }

  /// Donor `d`'s credits for borrowers in ascending id order.
  std::vector<PageCount> credits(NodeId d) const {
    std::vector<PageCount> out;
    for (NodeId b = 0; b < 4; ++b) {
      if (b != d) out.push_back(broker_->credit(b, d));
    }
    return out;
  }

  sim::Simulator sim_;
  std::vector<std::unique_ptr<hyper::Hypervisor>> hyps_;
  std::unique_ptr<LendingBroker> broker_;
};

// The even split: every donor's pool divides evenly over the other nodes,
// the remainder going one frame each to the lowest borrower ids.
TEST_F(LendingSplitTest, RemainderGoesToLowestBorrowerIds) {
  EXPECT_EQ(credits(0), (std::vector<PageCount>{4, 3, 3}));
  EXPECT_EQ(credits(2), (std::vector<PageCount>{2, 2, 1}));
  // Unlimited-quota nodes lend nothing, and nobody borrows from itself.
  for (NodeId b = 0; b < 4; ++b) {
    EXPECT_EQ(broker_->credit(b, 1), 0u);
    EXPECT_EQ(broker_->credit(b, 3), 0u);
    EXPECT_EQ(broker_->credit(b, b), 0u);
  }
}

// A charged donor is re-split at the next barrier; a donor nobody touched
// keeps its credits and its lease across barriers.
TEST_F(LendingSplitTest, ChargedDonorIsResplitAndCleanDonorStands) {
  // Borrower 3's rotation starts at node 0: the placement charges donor 0.
  ASSERT_TRUE(
      broker_->port(3)->remote_put(kVm, PoolType::kPersistent, 1, 0, 9).ok());
  ASSERT_EQ(credits(0), (std::vector<PageCount>{4, 3, 2}));
  for (int barrier = 0; barrier < 3; ++barrier) {
    SCOPED_TRACE(barrier);
    broker_->sync_window();
    EXPECT_EQ(credits(0), (std::vector<PageCount>{3, 3, 3}));
    EXPECT_EQ(credits(2), (std::vector<PageCount>{2, 2, 1}));
    EXPECT_EQ(hyps_[0]->lent_pages(), 10u);
    EXPECT_EQ(hyps_[2]->lent_pages(), 5u);
  }
}

// An untouched donor whose quota shrinks leases the frames it can now spare
// and re-splits at the next barrier; when the quota grows back it sheds the
// unused credit and re-splits again.
TEST_F(LendingSplitTest, QuotaChangeResplitsAnUntouchedDonor) {
  hyps_[2]->set_node_quota(kPhys - 8);
  broker_->sync_window();
  EXPECT_EQ(hyps_[2]->lent_pages(), 8u);
  EXPECT_EQ(credits(2), (std::vector<PageCount>{3, 3, 2}));
  EXPECT_EQ(credits(0), (std::vector<PageCount>{4, 3, 3}));

  hyps_[2]->set_node_quota(kPhys - 5);
  broker_->sync_window();
  EXPECT_EQ(hyps_[2]->lent_pages(), 5u);
  EXPECT_EQ(credits(2), (std::vector<PageCount>{2, 2, 1}));
  EXPECT_EQ(broker_->recalls(), 0u);
}

// End-to-end Algorithm 1 fallback: a physically full node below its quota
// sends the overflow put to a donor over the lending fabric and reads it
// back at the remote tier, and each hypercall returns the fabric time the
// guest is charged.
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
    const hyper::TmemOp local =
        borrower.put(kVm, PoolType::kPersistent, 1, i, 1000 + i);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(local.tier, tmem::Tier::kDram);
    EXPECT_EQ(local.fabric, 0);
  }
  EXPECT_EQ(borrower.remote_puts(), 0u);

  // Ninth page: store full, zero ephemerals to recycle, quota headroom left.
  const hyper::TmemOp put =
      borrower.put(kVm, PoolType::kPersistent, 1, 8, 1008);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.tier, tmem::Tier::kRemote);
  EXPECT_EQ(borrower.remote_puts(), 1u);
  // Default lending hops: 40 us each way plus the donor's 5 us service.
  constexpr SimTime kRoundTrip = 2 * 40 * kMicrosecond + 5 * kMicrosecond;
  EXPECT_EQ(put.fabric, kRoundTrip);
  EXPECT_EQ(broker.borrowed_total(0), 1u);
  EXPECT_EQ(broker.credit(0, 1), kLendable - 1);
  EXPECT_EQ(borrower.own_used_total(), 9u);

  const hyper::TmemOp back = borrower.get(kVm, PoolType::kPersistent, 1, 8);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.payload, 1008u);
  EXPECT_EQ(back.tier, tmem::Tier::kRemote);
  EXPECT_EQ(borrower.remote_gets(), 1u);
  // Issued at the same sim instant as the put, the get waits out the put's
  // service at the donor.
  EXPECT_EQ(back.fabric, kRoundTrip + 5 * kMicrosecond);

  // At the quota wall the remote fallback stops too, without a round trip.
  borrower.set_node_quota(9);
  const hyper::TmemOp rejected =
      borrower.put(kVm, PoolType::kPersistent, 1, 9, 1009);
  EXPECT_EQ(rejected.status, hyper::OpStatus::kNoCapacity);
  EXPECT_EQ(rejected.fabric, 0);
}

}  // namespace
}  // namespace smartmem::cluster
