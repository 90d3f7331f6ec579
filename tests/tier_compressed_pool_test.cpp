// Tests for the zswap-style compressed tier (src/tier): the deterministic
// compressibility model, the byte-budget ledger, the store's
// DRAM -> compressed -> NVM placement chain, demote-vs-drop eviction, and
// the hypervisor-level visibility (tier out-params, MemStats usage).
#include <gtest/gtest.h>

#include <vector>

#include "guest/costs.hpp"
#include "hyper/hypervisor.hpp"
#include "tier/compressed_pool.hpp"
#include "tier/compressibility.hpp"
#include "tmem/store.hpp"

namespace smartmem {
namespace {

tier::CompressibilityConfig model_config(double min_ratio = 1.5,
                                         double max_ratio = 4.0) {
  tier::CompressibilityConfig cfg;
  cfg.seed = 42;  // explicit: 0 would mean "derive from the run seed"
  cfg.min_ratio = min_ratio;
  cfg.max_ratio = max_ratio;
  return cfg;
}

/// Compressed size of VM 1's persistent page (0, index) under the ratio-2
/// model every store below uses.
std::uint32_t ratio2_bytes(std::uint32_t index) {
  return tier::CompressibilityModel(model_config(2.0, 2.0))
      .compressed_bytes(1, tmem::PoolType::kPersistent, 0, index);
}

// ---- CompressibilityModel -------------------------------------------------

TEST(CompressibilityModelTest, PureHashIsDeterministicAndBounded) {
  const tier::CompressibilityModel a(model_config());
  const tier::CompressibilityModel b(model_config());
  for (VmId vm = 1; vm <= 4; ++vm) {
    for (tmem::PoolType kind :
         {tmem::PoolType::kEphemeral, tmem::PoolType::kPersistent}) {
      const double mean = a.mean_ratio(vm, kind);
      EXPECT_GE(mean, 1.5);
      EXPECT_LE(mean, 4.0);
      EXPECT_DOUBLE_EQ(mean, b.mean_ratio(vm, kind));
      for (std::uint64_t object = 0; object < 4; ++object) {
        for (std::uint32_t index = 0; index < 32; ++index) {
          const std::uint32_t bytes =
              a.compressed_bytes(vm, kind, object, index);
          EXPECT_EQ(bytes, b.compressed_bytes(vm, kind, object, index))
              << "same key must compress to the same size";
          EXPECT_GE(bytes, kPageSize / 8);
          EXPECT_LE(bytes, kPageSize);
        }
      }
    }
  }
}

TEST(CompressibilityModelTest, SeedChangesTheDistribution) {
  tier::CompressibilityConfig other = model_config();
  other.seed = 43;
  const tier::CompressibilityModel a(model_config());
  const tier::CompressibilityModel b(other);
  bool any_differ = false;
  for (std::uint32_t index = 0; index < 64 && !any_differ; ++index) {
    any_differ = a.compressed_bytes(1, tmem::PoolType::kEphemeral, 0, index) !=
                 b.compressed_bytes(1, tmem::PoolType::kEphemeral, 0, index);
  }
  EXPECT_TRUE(any_differ);
}

// ---- CompressedPool ledger ------------------------------------------------

TEST(CompressedPoolTest, ByteBudgetAccounting) {
  tier::CompressedPoolConfig cfg;
  cfg.capacity_bytes = 3000;
  cfg.model = model_config();
  tier::CompressedPool pool(cfg);
  ASSERT_TRUE(pool.enabled());

  EXPECT_TRUE(pool.fits(3000));
  EXPECT_FALSE(pool.fits(3001));
  pool.add(1000);
  pool.add(1500);
  EXPECT_EQ(pool.bytes_used(), 2500u);
  EXPECT_EQ(pool.free_bytes(), 500u);
  EXPECT_EQ(pool.pages(), 2u);
  EXPECT_FALSE(pool.fits(501));
  EXPECT_TRUE(pool.fits(500));

  pool.remove(1500);
  EXPECT_EQ(pool.bytes_used(), 1000u);
  EXPECT_EQ(pool.pages(), 1u);
  EXPECT_EQ(pool.peak_bytes(), 2500u) << "peak survives release";
  EXPECT_EQ(pool.peak_pages(), 2u);
}

TEST(CompressedPoolTest, ZeroBudgetDisablesTheTier) {
  tier::CompressedPool pool(tier::CompressedPoolConfig{});
  EXPECT_FALSE(pool.enabled());
  EXPECT_FALSE(pool.fits(1));
}

// ---- TmemStore tier chain -------------------------------------------------

// A store whose pages compress at mean ratio 2 (each page's size jitters
// around kPageSize/2; ratio2_bytes() reads it).
tmem::StoreConfig chain_config(PageCount dram, std::uint64_t comp_bytes,
                               PageCount nvm,
                               tmem::CompressedEvictMode evict =
                                   tmem::CompressedEvictMode::kDemote) {
  tmem::StoreConfig cfg;
  cfg.total_pages = dram;
  cfg.nvm_pages = nvm;
  cfg.compressed.capacity_bytes = comp_bytes;
  cfg.compressed.model = model_config(2.0, 2.0);
  cfg.compressed_evict = evict;
  return cfg;
}

TEST(CompressedStoreTest, PlacementWalksDramCompressedNvm) {
  // DRAM 2 pages, a compressed budget of exactly pages 2 and 3, NVM 1 page.
  const std::uint32_t b2 = ratio2_bytes(2);
  const std::uint32_t b3 = ratio2_bytes(3);
  tmem::TmemStore store(chain_config(2, b2 + b3, 1));
  const tmem::PoolId p = store.create_pool(1, tmem::PoolType::kPersistent);
  ASSERT_EQ(store.compressed_pool().page_bytes(1, tmem::PoolType::kPersistent,
                                               0, 2),
            b2);

  std::vector<tmem::Tier> tiers;
  for (std::uint32_t i = 0; i < 5; ++i) {
    tmem::Tier tier = tmem::Tier::kDram;
    ASSERT_EQ(store.put({p, 0, i}, 100 + i, &tier), tmem::PutResult::kStored);
    tiers.push_back(tier);
  }
  EXPECT_EQ(tiers, (std::vector<tmem::Tier>{
                       tmem::Tier::kDram, tmem::Tier::kDram,
                       tmem::Tier::kCompressed, tmem::Tier::kCompressed,
                       tmem::Tier::kNvm}));
  EXPECT_EQ(store.compressed_pages(), 2u);
  EXPECT_EQ(store.compressed_pool().bytes_used(), b2 + b3);
  EXPECT_EQ(store.stats().compressed_stored, 2u);

  // Everything persistent and every tier full: the 6th put must fail.
  EXPECT_EQ(store.put({p, 0, 5}, 105), tmem::PutResult::kNoMemory);

  // Effective bytes: 2 full DRAM pages + 2 compressed + 1 full NVM page.
  EXPECT_EQ(store.vm_bytes(1), 2 * kPageSize + b2 + b3 + kPageSize);
  EXPECT_EQ(store.vm_pages(1), 5u);
  EXPECT_EQ(store.combined_free_bytes(), 0u);

  // Gets are served from — and attributed to — the right tier.
  tmem::Tier hit = tmem::Tier::kDram;
  auto got = store.get({p, 0, 2}, &hit);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 102u) << "payload survives the compressed tier";
  EXPECT_EQ(hit, tmem::Tier::kCompressed);
  EXPECT_EQ(store.stats().gets_hit_compressed, 1u);

  // Flushing a compressed page returns its bytes to the budget (the
  // persistent get above was non-destructive, so index 2 is still charged).
  EXPECT_TRUE(store.flush_page({p, 0, 3}));
  EXPECT_EQ(store.compressed_pool().bytes_used(), b2);
  EXPECT_EQ(store.compressed_pages(), 1u);

  for (const std::uint32_t i : {0u, 1u, 2u, 4u}) {
    EXPECT_TRUE(store.flush_page({p, 0, i}));
  }
  EXPECT_EQ(store.vm_bytes(1), 0u);
  EXPECT_EQ(store.combined_free_bytes(), store.combined_total_bytes());
}

TEST(CompressedStoreTest, PlacementIsDeterministicAcrossInstances) {
  auto run = [] {
    tmem::TmemStore store(chain_config(4, 2 * kPageSize, 2));
    std::vector<tmem::Tier> tiers;
    for (VmId vm = 1; vm <= 2; ++vm) {
      const tmem::PoolId p =
          store.create_pool(vm, tmem::PoolType::kPersistent);
      for (std::uint32_t i = 0; i < 4; ++i) {
        tmem::Tier tier = tmem::Tier::kDram;
        if (store.put({p, 0, i}, i, &tier) != tmem::PutResult::kNoMemory) {
          tiers.push_back(tier);
        }
      }
    }
    return tiers;
  };
  EXPECT_EQ(run(), run());
}

TEST(CompressedStoreTest, EvictionDemotesVictimDownTheChain) {
  // DRAM 2, a compressed budget of one page (about two compressed pages),
  // no NVM. The incompressible pool's puts cannot use the compressed tier,
  // so they force eviction of the compressible pool's DRAM pages — which
  // demote instead of dropping.
  tmem::TmemStore store(chain_config(2, kPageSize, 0));
  const tmem::PoolId e = store.create_pool(1, tmem::PoolType::kEphemeral);
  const tmem::PoolId i =
      store.create_pool(2, tmem::PoolType::kEphemeral, /*compressible=*/false);

  ASSERT_EQ(store.put({e, 0, 0}, 10), tmem::PutResult::kStored);
  ASSERT_EQ(store.put({e, 0, 1}, 11), tmem::PutResult::kStored);
  ASSERT_EQ(store.free_pages(), 0u);

  // i0 needs a DRAM frame: the oldest victim (e0) is demoted, not dropped.
  tmem::Tier tier = tmem::Tier::kNvm;
  ASSERT_EQ(store.put({i, 0, 0}, 20, &tier), tmem::PutResult::kStored);
  EXPECT_EQ(tier, tmem::Tier::kDram);
  EXPECT_TRUE(store.contains({e, 0, 0})) << "demoted, still resident";
  EXPECT_EQ(store.compressed_pages(), 1u) << "e0 sits in the compressed tier";
  EXPECT_EQ(store.stats().demotions_to_compressed, 1u);
  EXPECT_EQ(store.stats().ephemeral_evictions, 0u);

  // A demoted page keeps its LRU age. The next incompressible put picks e0
  // again; with no tier below the compressed pool it is finally dropped,
  // which frees bytes (not a frame), so the eviction loop then demotes e1 —
  // strict down-chain movement, and the loop terminates.
  ASSERT_EQ(store.put({i, 0, 1}, 21, &tier), tmem::PutResult::kStored);
  EXPECT_EQ(tier, tmem::Tier::kDram);
  EXPECT_FALSE(store.contains({e, 0, 0})) << "oldest finally dropped";
  EXPECT_TRUE(store.contains({e, 0, 1}));
  EXPECT_TRUE(store.contains({i, 0, 0}));
  EXPECT_EQ(store.compressed_pages(), 1u)
      << "DRAM holds i0 and i1, so e1 is the compressed page";
  EXPECT_EQ(store.stats().demotions_to_compressed, 2u);
  EXPECT_EQ(store.stats().ephemeral_evictions, 1u);
}

TEST(CompressedStoreTest, DropModeDiscardsVictims) {
  tmem::TmemStore store(
      chain_config(2, kPageSize, 0, tmem::CompressedEvictMode::kDrop));
  const tmem::PoolId e = store.create_pool(1, tmem::PoolType::kEphemeral);
  const tmem::PoolId i =
      store.create_pool(2, tmem::PoolType::kEphemeral, /*compressible=*/false);

  ASSERT_EQ(store.put({e, 0, 0}, 10), tmem::PutResult::kStored);
  ASSERT_EQ(store.put({e, 0, 1}, 11), tmem::PutResult::kStored);
  ASSERT_EQ(store.put({i, 0, 0}, 20), tmem::PutResult::kStored);
  EXPECT_FALSE(store.contains({e, 0, 0})) << "kDrop: victim discarded";
  EXPECT_EQ(store.stats().demotions_to_compressed, 0u);
  EXPECT_EQ(store.stats().ephemeral_evictions, 1u);
  EXPECT_EQ(store.compressed_pages(), 0u);
}

TEST(CompressedStoreTest, IncompressiblePoolNeverEntersTheTier) {
  tmem::TmemStore store(chain_config(1, 16 * kPageSize, 0));
  const tmem::PoolId p =
      store.create_pool(1, tmem::PoolType::kPersistent, /*compressible=*/false);
  ASSERT_EQ(store.put({p, 0, 0}, 1), tmem::PutResult::kStored);
  // Plenty of compressed budget, but the pool may not use it and there is
  // nothing evictable: the put must fail rather than compress.
  EXPECT_EQ(store.put({p, 0, 1}, 2), tmem::PutResult::kNoMemory);
  EXPECT_EQ(store.compressed_pages(), 0u);
  EXPECT_FALSE(store.compressed_fits({p, 0, 1}));
}

TEST(CompressedStoreTest, DisabledTierIsInert) {
  tmem::TmemStore store(chain_config(2, /*comp_bytes=*/0, 0));
  EXPECT_FALSE(store.compressed_enabled());
  const tmem::PoolId p = store.create_pool(1, tmem::PoolType::kEphemeral);
  for (std::uint32_t idx = 0; idx < 8; ++idx) {
    tmem::Tier tier = tmem::Tier::kDram;
    ASSERT_EQ(store.put({p, 0, idx}, idx, &tier), tmem::PutResult::kStored);
    EXPECT_NE(tier, tmem::Tier::kCompressed);
  }
  EXPECT_EQ(store.compressed_pages(), 0u);
  EXPECT_EQ(store.combined_total_bytes(), 2 * kPageSize);
}

// ---- Hypervisor visibility ------------------------------------------------

TEST(CompressedHypervisorTest, TierReachesHypercallsAndStats) {
  sim::Simulator sim;
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = 1;
  cfg.compressed.capacity_bytes = 4 * kPageSize;
  cfg.compressed.model = model_config(2.0, 2.0);
  hyper::Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);

  constexpr auto kFrontswap = tmem::PoolType::kPersistent;
  const hyper::TmemOp first = hyp.put(1, kFrontswap, 0, 0, 100);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.tier, tmem::Tier::kDram);
  const hyper::TmemOp second = hyp.put(1, kFrontswap, 0, 1, 101);
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(second.tier, tmem::Tier::kCompressed)
      << "DRAM exhausted: spill into the compressed tier";

  // The guest charges a distinct (higher) CPU cost for compressed-tier
  // accesses; the tier in the hypercall's result is what selects it.
  const guest::CostModel costs;
  EXPECT_GT(costs.tmem_put_compressed, costs.tmem_put);
  EXPECT_GT(costs.tmem_get_compressed, costs.tmem_get);

  // Page units count the compressed page as a whole page; its effective
  // bytes (what byte units report) are smaller than pages * kPageSize.
  const hyper::MemStats stats = hyp.snapshot();
  ASSERT_EQ(stats.vm.size(), 1u);
  EXPECT_EQ(stats.vm[0].tmem_used, 2u);
  EXPECT_EQ(hyp.store().vm_bytes(1), kPageSize + ratio2_bytes(1));
  EXPECT_LT(ratio2_bytes(1), kPageSize);

  const hyper::TmemOp got = hyp.get(1, kFrontswap, 0, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.payload, 101u);
  EXPECT_EQ(got.tier, tmem::Tier::kCompressed);
  EXPECT_EQ(hyp.store().stats().gets_hit_compressed, 1u);
}

TEST(CompressedHypervisorTest, ByteUnitsReportByteCapacities) {
  sim::Simulator sim;
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = 4;
  cfg.compressed.capacity_bytes = 2 * kPageSize;
  cfg.compressed.model = model_config(2.0, 2.0);
  cfg.capacity_units = CapacityUnits::kBytes;
  hyper::Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);

  const hyper::MemStats empty = hyp.snapshot();
  EXPECT_EQ(empty.total_tmem, 4 * kPageSize + 2 * kPageSize);
  EXPECT_EQ(empty.free_tmem, 4 * kPageSize + 2 * kPageSize);

  EXPECT_TRUE(hyp.put(1, tmem::PoolType::kPersistent, 0, 0, 7).ok());
  const hyper::MemStats after = hyp.snapshot();
  EXPECT_EQ(after.free_tmem, 3 * kPageSize + 2 * kPageSize);
  EXPECT_EQ(after.vm[0].tmem_used, kPageSize) << "usage reported in bytes";
}

}  // namespace
}  // namespace smartmem
