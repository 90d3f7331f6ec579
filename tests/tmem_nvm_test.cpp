// The Ex-Tmem NVM tier: DRAM-first placement, spill-over, per-tier
// accounting, and end-to-end behaviour through hypervisor and guest.
#include <gtest/gtest.h>

#include <memory>

#include "guest/guest_kernel.hpp"
#include "hyper/hypervisor.hpp"
#include "tmem/store.hpp"

namespace smartmem {
namespace {

using tmem::PoolType;
using tmem::PutResult;
using tmem::StoreConfig;
using tmem::Tier;
using tmem::TmemStore;

StoreConfig two_tier(PageCount dram, PageCount nvm) {
  StoreConfig cfg;
  cfg.total_pages = dram;
  cfg.nvm_pages = nvm;
  return cfg;
}

TEST(NvmStoreTest, DramFillsFirstThenSpills) {
  TmemStore store(two_tier(2, 3));
  const auto pool = store.create_pool(1, PoolType::kPersistent);
  Tier tier;
  EXPECT_EQ(store.put({pool, 0, 0}, 1, &tier), PutResult::kStored);
  EXPECT_EQ(tier, Tier::kDram);
  EXPECT_EQ(store.put({pool, 0, 1}, 2, &tier), PutResult::kStored);
  EXPECT_EQ(tier, Tier::kDram);
  EXPECT_EQ(store.put({pool, 0, 2}, 3, &tier), PutResult::kStored);
  EXPECT_EQ(tier, Tier::kNvm);
  EXPECT_EQ(store.free_pages(), 0u);
  EXPECT_EQ(store.nvm_free_pages(), 2u);
  EXPECT_EQ(store.combined_free_pages(), 2u);
}

TEST(NvmStoreTest, BothTiersExhaustedFailsPut) {
  TmemStore store(two_tier(1, 1));
  const auto pool = store.create_pool(1, PoolType::kPersistent);
  EXPECT_EQ(store.put({pool, 0, 0}, 1), PutResult::kStored);
  EXPECT_EQ(store.put({pool, 0, 1}, 2), PutResult::kStored);
  EXPECT_EQ(store.put({pool, 0, 2}, 3), PutResult::kNoMemory);
}

TEST(NvmStoreTest, FlushReturnsFrameToTheRightTier) {
  TmemStore store(two_tier(1, 1));
  const auto pool = store.create_pool(1, PoolType::kPersistent);
  store.put({pool, 0, 0}, 1);  // DRAM
  store.put({pool, 0, 1}, 2);  // NVM
  EXPECT_TRUE(store.flush_page({pool, 0, 1}));
  EXPECT_EQ(store.free_pages(), 0u);
  EXPECT_EQ(store.nvm_free_pages(), 1u);
  EXPECT_TRUE(store.flush_page({pool, 0, 0}));
  EXPECT_EQ(store.free_pages(), 1u);
}

TEST(NvmStoreTest, GetReportsServingTier) {
  TmemStore store(two_tier(1, 1));
  const auto pool = store.create_pool(1, PoolType::kPersistent);
  store.put({pool, 0, 0}, 11);
  store.put({pool, 0, 1}, 22);
  Tier tier;
  EXPECT_EQ(store.get({pool, 0, 0}, &tier), 11u);
  EXPECT_EQ(tier, Tier::kDram);
  EXPECT_EQ(store.get({pool, 0, 1}, &tier), 22u);
  EXPECT_EQ(tier, Tier::kNvm);
}

TEST(NvmStoreTest, EphemeralEvictionFreesItsOwnTier) {
  TmemStore store(two_tier(1, 1));
  const auto eph = store.create_pool(1, PoolType::kEphemeral);
  const auto per = store.create_pool(2, PoolType::kPersistent);
  store.put({eph, 0, 0}, 1);  // DRAM
  store.put({eph, 0, 1}, 2);  // NVM
  // Persistent put with both tiers full: evicts the oldest ephemeral (the
  // DRAM one) and takes its frame.
  Tier tier;
  EXPECT_EQ(store.put({per, 0, 0}, 3, &tier), PutResult::kStored);
  EXPECT_EQ(tier, Tier::kDram);
  EXPECT_FALSE(store.contains({eph, 0, 0}));
  EXPECT_TRUE(store.contains({eph, 0, 1}));
}

TEST(NvmHypervisorTest, CombinedTotalsReported) {
  sim::Simulator sim;
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = 10;
  cfg.nvm_tmem_pages = 30;
  hyper::Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);
  EXPECT_EQ(hyp.total_tmem(), 40u);
  EXPECT_EQ(hyp.free_tmem(), 40u);
  const auto stats = hyp.snapshot();
  EXPECT_EQ(stats.total_tmem, 40u);
  // Equal-share grounding and Algorithm 1 operate on the combined pool.
  for (std::uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(hyp.put(1, PoolType::kPersistent, 0, i, i).ok());
  }
  EXPECT_EQ(hyp.put(1, PoolType::kPersistent, 0, 99, 1).status,
            hyper::OpStatus::kNoCapacity);
  EXPECT_EQ(hyp.tmem_used(1), 40u);
}

TEST(NvmGuestTest, NvmGetsCostMoreThanDram) {
  // Two identical kernels; one's tmem is all DRAM, the other's is all NVM.
  auto run = [](PageCount dram, PageCount nvm) {
    sim::Simulator sim;
    hyper::HypervisorConfig hcfg;
    hcfg.total_tmem_pages = dram;
    hcfg.nvm_tmem_pages = nvm;
    hyper::Hypervisor hyp(sim, hcfg);
    hyp.register_vm(1);
    sim::DiskDevice disk(sim, sim::DiskModel{});
    guest::GuestConfig gcfg;
    gcfg.vm = 1;
    gcfg.ram_pages = 64;
    gcfg.kernel_reserved_pages = 8;
    gcfg.swap_slots = 512;
    gcfg.low_watermark = 4;
    gcfg.high_watermark = 8;
    guest::GuestKernel kernel(sim, hyp, disk, gcfg);
    const auto asid = kernel.create_address_space();
    const Vpn base = kernel.alloc_region(asid, 120);
    SimTime t = 0;
    for (int pass = 0; pass < 3; ++pass) {
      for (Vpn v = base; v < base + 120; ++v) {
        t = kernel.touch(asid, v, pass == 0, t).end;
      }
    }
    EXPECT_EQ(kernel.stats().swapins_disk, 0u);
    return t;
  };
  const SimTime dram_time = run(256, 0);
  const SimTime nvm_time = run(0, 256);
  EXPECT_GT(nvm_time, dram_time);
  // But NVM must still be far cheaper than having no tmem at all (disk).
  const SimTime ratio_check = nvm_time;
  EXPECT_LT(ratio_check, 3 * dram_time);
}

TEST(NvmGuestTest, NvmTierAbsorbsOverflowInsteadOfDisk) {
  // DRAM too small for the working set: without NVM the overflow hits the
  // disk, with NVM it does not.
  auto disk_swapins = [](PageCount nvm) {
    sim::Simulator sim;
    hyper::HypervisorConfig hcfg;
    hcfg.total_tmem_pages = 32;
    hcfg.nvm_tmem_pages = nvm;
    hyper::Hypervisor hyp(sim, hcfg);
    hyp.register_vm(1);
    sim::DiskDevice disk(sim, sim::DiskModel{});
    guest::GuestConfig gcfg;
    gcfg.vm = 1;
    gcfg.ram_pages = 64;
    gcfg.kernel_reserved_pages = 8;
    gcfg.swap_slots = 512;
    gcfg.low_watermark = 4;
    gcfg.high_watermark = 8;
    guest::GuestKernel kernel(sim, hyp, disk, gcfg);
    const auto asid = kernel.create_address_space();
    const Vpn base = kernel.alloc_region(asid, 150);
    SimTime t = 0;
    for (int pass = 0; pass < 3; ++pass) {
      for (Vpn v = base; v < base + 150; ++v) {
        t = kernel.touch(asid, v, true, t).end;
      }
    }
    return kernel.stats().swapins_disk;
  };
  EXPECT_GT(disk_swapins(0), 0u);
  EXPECT_EQ(disk_swapins(256), 0u);
}

}  // namespace
}  // namespace smartmem
