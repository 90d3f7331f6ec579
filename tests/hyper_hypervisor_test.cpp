// Unit tests for Algorithm 1 and the hypervisor's Table I bookkeeping.
#include "hyper/hypervisor.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace smartmem::hyper {
namespace {

constexpr auto kFrontswap = tmem::PoolType::kPersistent;
constexpr auto kCleancache = tmem::PoolType::kEphemeral;

HypervisorConfig config(PageCount pages,
                        DefaultTargetMode mode = DefaultTargetMode::kUnlimited) {
  HypervisorConfig cfg;
  cfg.total_tmem_pages = pages;
  cfg.default_target_mode = mode;
  return cfg;
}

TEST(HypervisorTest, RegisterAndUnregister) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(100));
  hyp.register_vm(1);
  hyp.register_vm(2);
  EXPECT_TRUE(hyp.vm_registered(1));
  EXPECT_EQ(hyp.vm_count(), 2u);
  EXPECT_THROW(hyp.register_vm(1), std::invalid_argument);
  hyp.unregister_vm(1);
  EXPECT_FALSE(hyp.vm_registered(1));
  hyp.unregister_vm(1);  // idempotent
}

TEST(HypervisorTest, GreedyDefaultHasUnlimitedTarget) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(100));
  hyp.register_vm(1);
  EXPECT_EQ(hyp.target(1), kUnlimitedTarget);
}

TEST(HypervisorTest, EqualShareModeDividesOnRegistration) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(90, DefaultTargetMode::kEqualShare));
  hyp.register_vm(1);
  EXPECT_EQ(hyp.target(1), 90u);
  hyp.register_vm(2);
  hyp.register_vm(3);
  EXPECT_EQ(hyp.target(1), 30u);
  EXPECT_EQ(hyp.target(3), 30u);
  hyp.unregister_vm(2);
  EXPECT_EQ(hyp.target(1), 45u);
}

// The sequenced hypercall path: a reordered or duplicated downlink delivery
// must not regress targets to an older vector.
TEST(HypervisorTest, ApplyTargetsDropsStaleSequences) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(100));
  hyp.register_vm(1);

  hyp.apply_targets({2, {{1, 40}}});
  EXPECT_EQ(hyp.target(1), 40u);
  EXPECT_EQ(hyp.last_target_seq(), 2u);

  hyp.apply_targets({1, {{1, 10}}});  // reordered: older than seq 2
  EXPECT_EQ(hyp.target(1), 40u);
  hyp.apply_targets({2, {{1, 10}}});  // duplicated delivery of seq 2
  EXPECT_EQ(hyp.target(1), 40u);
  EXPECT_EQ(hyp.stale_targets_dropped(), 2u);
  EXPECT_EQ(hyp.target_updates(), 1u);

  hyp.apply_targets({3, {{1, 60}}});  // fresh: applies
  EXPECT_EQ(hyp.target(1), 60u);
  EXPECT_EQ(hyp.last_target_seq(), 3u);
}

// seq 0 marks the raw unsequenced hypercall (tests/tooling): always applied.
TEST(HypervisorTest, UnsequencedTargetsAlwaysApply) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(100));
  hyp.register_vm(1);
  hyp.apply_targets({5, {{1, 40}}});
  hyp.apply_targets({0, {{1, 25}}});
  EXPECT_EQ(hyp.target(1), 25u);
  EXPECT_EQ(hyp.last_target_seq(), 5u);
  EXPECT_EQ(hyp.stale_targets_dropped(), 0u);
}

TEST(HypervisorTest, SampleTicksStampMonotonicSequences) {
  sim::Simulator sim;
  HypervisorConfig cfg = config(100);
  cfg.sample_interval = kSecond;
  Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);

  std::vector<std::uint64_t> seqs;
  hyp.start_sampling([&](const MemStats& s) { seqs.push_back(s.seq); });
  sim.run_until(3 * kSecond);
  hyp.stop_sampling();
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
  // Monitoring snapshots stay unsequenced.
  EXPECT_EQ(hyp.snapshot().seq, 0u);
}

TEST(HypervisorTest, PutGetFlushRoundTrip) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(10));
  hyp.register_vm(1);
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 5, 0x1234).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.tmem_used(1), 1u);
  const TmemOp got = hyp.get(1, kFrontswap, 0, 5);
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.payload, 0x1234u);
  EXPECT_EQ(got.tier, tmem::Tier::kDram);
  EXPECT_EQ(got.fabric, 0);
  EXPECT_EQ(hyp.tmem_used(1), 1u);  // persistent get leaves the page
  EXPECT_EQ(hyp.flush(1, kFrontswap, 0, 5), OpStatus::kSuccess);
  EXPECT_EQ(hyp.tmem_used(1), 0u);
  EXPECT_EQ(hyp.flush(1, kFrontswap, 0, 5), OpStatus::kNotFound);
}

// Algorithm 1 line 5: a put fails with E_TMEM once tmem_used >= mm_target.
TEST(HypervisorTest, PutFailsAtTarget) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(100));
  hyp.register_vm(1);
  hyp.set_targets({{1, 3}});
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 0, 1).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 1, 2).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 2, 3).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 3, 4).status, OpStatus::kNoCapacity);
  const VmData& data = hyp.vm_data(1);
  EXPECT_EQ(data.puts_total, 4u);
  EXPECT_EQ(data.puts_succ, 3u);
  EXPECT_EQ(data.cumul_puts_failed, 1u);
}

// Algorithm 1 line 7: a put fails when the node has no free tmem, even if
// the VM is below its target.
TEST(HypervisorTest, PutFailsWhenNodeFull) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(2));
  hyp.register_vm(1);
  hyp.register_vm(2);
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 0, 1).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 1, 2).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.put(2, kFrontswap, 0, 0, 3).status, OpStatus::kNoCapacity);
  EXPECT_EQ(hyp.free_tmem(), 0u);
}

// "It is possible for a VM to use more tmem than its target" — lowering the
// target below current use must not drop pages, only block further puts.
TEST(HypervisorTest, OveruseIsToleratedButBlocksFurtherPuts) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(100));
  hyp.register_vm(1);
  for (std::uint32_t i = 0; i < 10; ++i) {
    ASSERT_EQ(hyp.put(1, kFrontswap, 0, i, i).status, OpStatus::kSuccess);
  }
  hyp.set_targets({{1, 4}});
  EXPECT_EQ(hyp.tmem_used(1), 10u);
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 99, 1).status, OpStatus::kNoCapacity);
  // Release below target; puts work again.
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(hyp.flush(1, kFrontswap, 0, i), OpStatus::kSuccess);
  }
  EXPECT_EQ(hyp.tmem_used(1), 3u);
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 99, 1).status, OpStatus::kSuccess);
}

TEST(HypervisorTest, TargetsApplyPerVm) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(100));
  hyp.register_vm(1);
  hyp.register_vm(2);
  hyp.set_targets({{1, 5}, {2, 50}});
  EXPECT_EQ(hyp.target(1), 5u);
  EXPECT_EQ(hyp.target(2), 50u);
  EXPECT_EQ(hyp.target_updates(), 1u);
  // Unknown VM targets are ignored without throwing.
  hyp.set_targets({{99, 1}});
  EXPECT_EQ(hyp.target_updates(), 2u);
}

TEST(HypervisorTest, FlushObject) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(100));
  hyp.register_vm(1);
  for (std::uint32_t i = 0; i < 6; ++i) {
    (void)hyp.put(1, kFrontswap, 7, i, i);
  }
  (void)hyp.put(1, kFrontswap, 8, 0, 0);
  EXPECT_EQ(hyp.flush_object(1, kFrontswap, 7), 6u);
  EXPECT_EQ(hyp.tmem_used(1), 1u);
}

TEST(HypervisorTest, CleancachePutGetAreEphemeral) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(10));
  hyp.register_vm(1);
  EXPECT_EQ(hyp.put(1, kCleancache, 3, 0, 77).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.tmem_used(1), 1u);
  const TmemOp got = hyp.get(1, kCleancache, 3, 0);
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.payload, 77u);
  // Ephemeral get is destructive.
  EXPECT_EQ(hyp.tmem_used(1), 0u);
  EXPECT_EQ(hyp.get(1, kCleancache, 3, 0).status, OpStatus::kNotFound);
}

TEST(HypervisorTest, CleancacheCountsAgainstTheSameTarget) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(100));
  hyp.register_vm(1);
  hyp.set_targets({{1, 2}});
  EXPECT_EQ(hyp.put(1, kFrontswap, 0, 0, 1).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.put(1, kCleancache, 0, 0, 2).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.put(1, kCleancache, 0, 1, 3).status, OpStatus::kNoCapacity);
}

// A persistent put may displace ephemeral (cleancache) pages: the node only
// counts as full when nothing is evictable.
TEST(HypervisorTest, PersistentPutDisplacesCleancache) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(2));
  hyp.register_vm(1);
  hyp.register_vm(2);
  EXPECT_EQ(hyp.put(1, kCleancache, 0, 0, 1).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.put(1, kCleancache, 0, 1, 2).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.put(2, kFrontswap, 0, 0, 3).status, OpStatus::kSuccess);
  EXPECT_EQ(hyp.tmem_used(1), 1u);
  EXPECT_EQ(hyp.tmem_used(2), 1u);
}

TEST(HypervisorTest, OpsOnUnregisteredVm) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(10));
  EXPECT_EQ(hyp.put(9, kFrontswap, 0, 0, 1).status, OpStatus::kBadVm);
  EXPECT_EQ(hyp.get(9, kFrontswap, 0, 0).status, OpStatus::kBadVm);
  EXPECT_EQ(hyp.flush(9, kFrontswap, 0, 0), OpStatus::kBadVm);
  EXPECT_THROW(hyp.vm_data(9), std::out_of_range);
}

TEST(HypervisorTest, UnregisterReleasesPages) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(4));
  hyp.register_vm(1);
  for (std::uint32_t i = 0; i < 4; ++i) (void)hyp.put(1, kFrontswap, 0, i, i);
  EXPECT_EQ(hyp.free_tmem(), 0u);
  hyp.unregister_vm(1);
  EXPECT_EQ(hyp.free_tmem(), 4u);
}

TEST(HypervisorTest, SnapshotMatchesTableI) {
  sim::Simulator sim;
  Hypervisor hyp(sim, config(50));
  hyp.register_vm(1);
  hyp.register_vm(2);
  hyp.set_targets({{1, 20}});
  (void)hyp.put(1, kFrontswap, 0, 0, 1);
  (void)hyp.put(1, kFrontswap, 0, 1, 2);
  const MemStats stats = hyp.snapshot();
  EXPECT_EQ(stats.total_tmem, 50u);
  EXPECT_EQ(stats.free_tmem, 48u);
  EXPECT_EQ(stats.vm_count, 2u);
  ASSERT_EQ(stats.vm.size(), 2u);
  EXPECT_EQ(stats.vm[0].vm_id, 1u);
  EXPECT_EQ(stats.vm[0].puts_total, 2u);
  EXPECT_EQ(stats.vm[0].puts_succ, 2u);
  EXPECT_EQ(stats.vm[0].tmem_used, 2u);
  EXPECT_EQ(stats.vm[0].mm_target, 20u);
  EXPECT_EQ(stats.vm[1].puts_total, 0u);
}

}  // namespace
}  // namespace smartmem::hyper
