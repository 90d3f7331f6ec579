// Property test: drive the tmem store with long random operation sequences
// and check its global invariants after every step. A side model of the
// global ephemeral LRU (a plain std::list in insertion order) cross-checks
// that evictions still happen strictly oldest-first.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "tmem/store.hpp"

namespace smartmem::tmem {
namespace {

struct StoreParams {
  PageCount capacity;
  bool dedup;
  std::uint64_t seed;
  /// Compressed-tier byte budget; 0 keeps the tier off (the default chain).
  std::uint64_t comp_bytes = 0;
  CompressedEvictMode evict = CompressedEvictMode::kDemote;
};

class StorePropertyTest : public ::testing::TestWithParam<StoreParams> {};

TEST_P(StorePropertyTest, InvariantsHoldUnderRandomOps) {
  const StoreParams params = GetParam();
  StoreConfig store_cfg;
  store_cfg.total_pages = params.capacity;
  store_cfg.zero_page_dedup = params.dedup;
  store_cfg.compressed.capacity_bytes = params.comp_bytes;
  store_cfg.compressed.model.seed = params.seed * 977 + 1;
  store_cfg.compressed_evict = params.evict;
  TmemStore store(store_cfg);
  Rng rng(params.seed);

  // Model state: what we believe the store holds.
  std::unordered_map<TmemKey, PagePayload, TmemKeyHash> model;
  // Reference LRU: ephemeral keys in insertion order, oldest first.
  std::list<TmemKey> lru_model;
  std::vector<PoolId> pools;
  std::map<PoolId, PoolType> type;

  for (int vm = 1; vm <= 3; ++vm) {
    for (PoolType t : {PoolType::kPersistent, PoolType::kEphemeral}) {
      const PoolId p = store.create_pool(static_cast<VmId>(vm), t);
      pools.push_back(p);
      type[p] = t;
    }
  }

  auto check_invariants = [&] {
    // 1. free + used == capacity.
    ASSERT_EQ(store.free_pages() + store.used_pages(), params.capacity);
    // 2. per-VM counts sum to the number of modelled entries (entries only
    //    disappear via flush/get-destructive/eviction, all of which we
    //    mirror below).
    PageCount total_vm = 0;
    for (VmId vm = 1; vm <= 3; ++vm) total_vm += store.vm_pages(vm);
    ASSERT_EQ(total_vm, model.size());
    // The intrusive list's element count must track the reference LRU.
    ASSERT_EQ(store.ephemeral_pages(), lru_model.size());
    // 3. every modelled persistent entry must still be present (persistent
    //    pages can never be silently dropped).
    for (const auto& [key, payload] : model) {
      if (type[key.pool] == PoolType::kPersistent) {
        ASSERT_TRUE(store.contains(key));
      }
    }
    // 4. compressed-tier ledger: never over budget, page count consistent
    //    with the store's view, and the per-VM effective-byte tallies sum
    //    to exactly the bytes the three tiers hold (deduped pages are 0).
    ASSERT_LE(store.compressed_pool().bytes_used(),
              store.compressed_pool().capacity_bytes());
    ASSERT_EQ(store.compressed_pages(), store.compressed_pool().pages());
    std::uint64_t total_bytes = 0;
    for (VmId vm = 1; vm <= 3; ++vm) total_bytes += store.vm_bytes(vm);
    ASSERT_EQ(total_bytes,
              (store.used_pages() + store.nvm_used_pages()) * kPageSize +
                  store.compressed_pool().bytes_used());
    // 5. per-pool page counts match the model.
    std::map<PoolId, PageCount> per_pool;
    for (const auto& [key, payload] : model) ++per_pool[key.pool];
    for (PoolId p : pools) ASSERT_EQ(store.pool_pages(p), per_pool[p]);
  };

  for (int step = 0; step < 20000; ++step) {
    const PoolId pool = pools[rng.uniform(pools.size())];
    const std::uint64_t object = rng.uniform(4);
    const auto index = static_cast<std::uint32_t>(rng.uniform(64));
    const TmemKey key{pool, object, index};
    switch (rng.uniform(4)) {
      case 0:
      case 1: {  // put (weighted 2x)
        const PagePayload payload = params.dedup && rng.chance(0.3)
                                        ? 0
                                        : rng.next() | 1;
        const PutResult r = store.put(key, payload);
        if (r != PutResult::kNoMemory) {
          model[key] = payload;
        }
        // A fresh store (kStored) lands at the MRU end. That includes the
        // evict-then-reinsert corner where the put key itself was the
        // (deduped) eviction victim mid-replace — drop any stale position
        // first, the tail push below re-adds it.
        if (r == PutResult::kStored && type[pool] == PoolType::kEphemeral) {
          const auto stale =
              std::find(lru_model.begin(), lru_model.end(), key);
          if (stale != lru_model.end()) lru_model.erase(stale);
        }
        // Even a FAILED put may have evicted ephemeral entries while hunting
        // for a frame (deduped victims free nothing). Eviction is strictly
        // oldest-first, so the vanished keys must form a *prefix* of the
        // reference LRU; reconcile the models and then prove nothing past
        // the prefix was touched.
        while (!lru_model.empty() && !store.contains(lru_model.front())) {
          model.erase(lru_model.front());
          lru_model.pop_front();
        }
        for (const auto& k : lru_model) {
          ASSERT_TRUE(store.contains(k))
              << "non-oldest ephemeral entry evicted (LRU order violated)";
        }
        if (r == PutResult::kStored && type[pool] == PoolType::kEphemeral) {
          lru_model.push_back(key);
        }
        break;
      }
      case 2: {  // get
        const auto result = store.get(key);
        auto it = model.find(key);
        if (it != model.end()) {
          ASSERT_TRUE(result.has_value());
          ASSERT_EQ(*result, it->second) << "payload corrupted";
          if (type[pool] == PoolType::kEphemeral) {
            model.erase(it);
            lru_model.remove(key);  // destructive hit leaves the LRU
          }
        } else {
          ASSERT_FALSE(result.has_value());
        }
        break;
      }
      case 3: {  // flush
        const bool existed = store.flush_page(key);
        ASSERT_EQ(existed, model.erase(key) > 0);
        if (existed && type[pool] == PoolType::kEphemeral) {
          lru_model.remove(key);
        }
        break;
      }
    }
    if (step % 500 == 0) check_invariants();
  }
  check_invariants();

  // Teardown: flushing every modelled page must return the store to
  // pristine state.
  for (const auto& [key, payload] : model) ASSERT_TRUE(store.flush_page(key));
  EXPECT_EQ(store.free_pages(), params.capacity);
  EXPECT_EQ(store.compressed_pool().bytes_used(), 0u);
  for (VmId vm = 1; vm <= 3; ++vm) EXPECT_EQ(store.vm_pages(vm), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, StorePropertyTest,
    ::testing::Values(StoreParams{16, false, 1},    // tiny, heavy contention
                      StoreParams{16, true, 2},     // tiny with dedup
                      StoreParams{256, false, 3},   // comfortable
                      StoreParams{256, true, 4},
                      StoreParams{64, false, 5},
                      StoreParams{1, false, 6},     // single page
                      StoreParams{4096, false, 7},
                      // Compressed tier on: demote chain, drop mode, dedup
                      // interaction, and a tiny pool with heavy churn.
                      StoreParams{16, false, 8, 8 * kPageSize},
                      StoreParams{16, false, 9, 8 * kPageSize,
                                  CompressedEvictMode::kDrop},
                      StoreParams{64, true, 10, 16 * kPageSize},
                      StoreParams{4, false, 11, 2 * kPageSize}));

}  // namespace
}  // namespace smartmem::tmem
