#include "tmem/store.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace smartmem::tmem {
namespace {

TmemStore make_store(PageCount pages, bool dedup = false) {
  StoreConfig cfg;
  cfg.total_pages = pages;
  cfg.zero_page_dedup = dedup;
  return TmemStore(cfg);
}

TEST(TmemStoreTest, PoolIdsAreDistinct) {
  TmemStore store = make_store(10);
  const PoolId a = store.create_pool(1, PoolType::kPersistent);
  const PoolId b = store.create_pool(1, PoolType::kPersistent);
  EXPECT_NE(a, b);
}

TEST(TmemStoreTest, PutGetRoundTripPersistent) {
  TmemStore store = make_store(10);
  const PoolId p = store.create_pool(1, PoolType::kPersistent);
  EXPECT_EQ(store.put({p, 7, 3}, 0xabcd), PutResult::kStored);
  EXPECT_EQ(store.get({p, 7, 3}), 0xabcdu);
  // Persistent get is non-destructive at the store level (the hypervisor
  // layer implements Xen's destructive-get convention via explicit flush).
  EXPECT_TRUE(store.contains({p, 7, 3}));
  EXPECT_EQ(store.used_pages(), 1u);
}

TEST(TmemStoreTest, EphemeralGetIsDestructive) {
  TmemStore store = make_store(10);
  const PoolId p = store.create_pool(1, PoolType::kEphemeral);
  store.put({p, 1, 1}, 42);
  EXPECT_EQ(store.get({p, 1, 1}), 42u);
  EXPECT_FALSE(store.contains({p, 1, 1}));
  EXPECT_EQ(store.free_pages(), 10u);
}

TEST(TmemStoreTest, GetMissReturnsNullopt) {
  TmemStore store = make_store(10);
  const PoolId p = store.create_pool(1, PoolType::kPersistent);
  EXPECT_FALSE(store.get({p, 1, 1}).has_value());
  EXPECT_EQ(store.stats().gets_miss, 1u);
}

TEST(TmemStoreTest, PutReplacesInPlace) {
  TmemStore store = make_store(2);
  const PoolId p = store.create_pool(1, PoolType::kPersistent);
  EXPECT_EQ(store.put({p, 1, 1}, 1), PutResult::kStored);
  EXPECT_EQ(store.put({p, 1, 1}, 2), PutResult::kReplaced);
  EXPECT_EQ(store.used_pages(), 1u);
  EXPECT_EQ(store.get({p, 1, 1}), 2u);
}

TEST(TmemStoreTest, CapacityExhaustionFailsPut) {
  TmemStore store = make_store(2);
  const PoolId p = store.create_pool(1, PoolType::kPersistent);
  EXPECT_EQ(store.put({p, 0, 0}, 1), PutResult::kStored);
  EXPECT_EQ(store.put({p, 0, 1}, 2), PutResult::kStored);
  EXPECT_EQ(store.put({p, 0, 2}, 3), PutResult::kNoMemory);
  EXPECT_EQ(store.stats().puts_failed, 1u);
  EXPECT_EQ(store.free_pages(), 0u);
}

TEST(TmemStoreTest, PersistentPutEvictsEphemeralVictim) {
  TmemStore store = make_store(2);
  const PoolId eph = store.create_pool(1, PoolType::kEphemeral);
  const PoolId per = store.create_pool(2, PoolType::kPersistent);
  store.put({eph, 0, 0}, 10);
  store.put({eph, 0, 1}, 11);
  EXPECT_EQ(store.free_pages(), 0u);
  EXPECT_EQ(store.put({per, 0, 0}, 20), PutResult::kStored);
  // The oldest ephemeral page was sacrificed.
  EXPECT_FALSE(store.contains({eph, 0, 0}));
  EXPECT_TRUE(store.contains({eph, 0, 1}));
  EXPECT_EQ(store.stats().ephemeral_evictions, 1u);
}

TEST(TmemStoreTest, PersistentPagesAreNeverEvicted) {
  TmemStore store = make_store(2);
  const PoolId per = store.create_pool(1, PoolType::kPersistent);
  store.put({per, 0, 0}, 1);
  store.put({per, 0, 1}, 2);
  EXPECT_EQ(store.put({per, 0, 2}, 3), PutResult::kNoMemory);
  EXPECT_TRUE(store.contains({per, 0, 0}));
  EXPECT_TRUE(store.contains({per, 0, 1}));
}

TEST(TmemStoreTest, FlushPage) {
  TmemStore store = make_store(4);
  const PoolId p = store.create_pool(1, PoolType::kPersistent);
  store.put({p, 1, 1}, 5);
  EXPECT_TRUE(store.flush_page({p, 1, 1}));
  EXPECT_FALSE(store.flush_page({p, 1, 1}));
  EXPECT_EQ(store.free_pages(), 4u);
  EXPECT_EQ(store.stats().pages_flushed, 1u);
}

TEST(TmemStoreTest, PerVmAccounting) {
  TmemStore store = make_store(10);
  const PoolId a = store.create_pool(1, PoolType::kPersistent);
  const PoolId b = store.create_pool(1, PoolType::kEphemeral);
  const PoolId c = store.create_pool(2, PoolType::kPersistent);
  store.put({a, 0, 0}, 1);
  store.put({b, 0, 0}, 2);
  store.put({c, 0, 0}, 3);
  EXPECT_EQ(store.vm_pages(1), 2u);
  EXPECT_EQ(store.vm_pages(2), 1u);
  EXPECT_EQ(store.vm_pages(3), 0u);
}

TEST(TmemStoreTest, EvictEphemeralFromVmTargetsOnlyThatVm) {
  TmemStore store = make_store(10);
  const PoolId a = store.create_pool(1, PoolType::kEphemeral);
  const PoolId b = store.create_pool(2, PoolType::kEphemeral);
  for (std::uint32_t i = 0; i < 3; ++i) store.put({a, 0, i}, i);
  for (std::uint32_t i = 0; i < 3; ++i) store.put({b, 0, i}, i);
  EXPECT_EQ(store.evict_ephemeral_from_vm(1, 2), 2u);
  EXPECT_EQ(store.vm_pages(1), 1u);
  EXPECT_EQ(store.vm_pages(2), 3u);
  // Asking for more than exists evicts what is there.
  EXPECT_EQ(store.evict_ephemeral_from_vm(1, 99), 1u);
}

TEST(TmemStoreTest, PutToUnknownPoolFails) {
  TmemStore store = make_store(10);
  const PoolId p = store.create_pool(1, PoolType::kPersistent);
  EXPECT_EQ(store.put({p + 1, 0, 0}, 1), PutResult::kNoMemory);
  EXPECT_EQ(store.stats().puts_failed, 1u);
}

TEST(TmemStoreTest, ZeroPageDedupConsumesNoFrame) {
  TmemStore store = make_store(2, /*dedup=*/true);
  const PoolId p = store.create_pool(1, PoolType::kPersistent);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(store.put({p, 0, i}, 0), PutResult::kStored);
  }
  EXPECT_EQ(store.free_pages(), 2u);
  EXPECT_EQ(store.vm_pages(1), 100u);
  EXPECT_EQ(store.get({p, 0, 50}), 0u);
  EXPECT_EQ(store.stats().zero_pages_deduped, 100u);
}

TEST(TmemStoreTest, DedupTransitionZeroToNonZero) {
  TmemStore store = make_store(1, /*dedup=*/true);
  const PoolId p = store.create_pool(1, PoolType::kPersistent);
  store.put({p, 0, 0}, 0);          // dedup'd, no frame
  store.put({p, 0, 1}, 7);          // takes the only frame
  EXPECT_EQ(store.free_pages(), 0u);
  // Rewriting the zero page with data needs a frame and must fail.
  EXPECT_EQ(store.put({p, 0, 0}, 9), PutResult::kNoMemory);
  // Rewriting the data page to zero releases its frame.
  EXPECT_EQ(store.put({p, 0, 1}, 0), PutResult::kReplaced);
  EXPECT_EQ(store.free_pages(), 1u);
}

TEST(TmemStoreTest, KeysAreScopedByPoolObjectIndex) {
  TmemStore store = make_store(10);
  const PoolId a = store.create_pool(1, PoolType::kPersistent);
  const PoolId b = store.create_pool(1, PoolType::kPersistent);
  store.put({a, 1, 1}, 100);
  store.put({b, 1, 1}, 200);
  store.put({a, 2, 1}, 300);
  store.put({a, 1, 2}, 400);
  EXPECT_EQ(store.get({a, 1, 1}), 100u);
  EXPECT_EQ(store.get({b, 1, 1}), 200u);
  EXPECT_EQ(store.get({a, 2, 1}), 300u);
  EXPECT_EQ(store.get({a, 1, 2}), 400u);
}

// Grows the key index through many doublings, then deletes most keys in a
// random order (every delete back-shifts its probe run) and checks every
// modelled key, live or flushed, after each batch of deletes.
TEST(TmemStoreTest, IndexChurnKeepsEveryKeyReachable) {
  constexpr std::size_t kKeys = 12000;
  TmemStore store = make_store(kKeys);
  const PoolId a = store.create_pool(1, PoolType::kPersistent);
  const PoolId b = store.create_pool(2, PoolType::kEphemeral);
  std::vector<TmemKey> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    // Few objects with many indices, and the same (object, index) in both
    // pools, so keys differ in one field at a time.
    keys.push_back({i % 2 == 0 ? a : b, i % 7,
                    static_cast<std::uint32_t>(i / 2)});
  }
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(store.put(keys[i], i + 1), PutResult::kStored);
  }
  std::vector<bool> live(kKeys, true);
  auto check_all = [&] {
    for (std::size_t i = 0; i < kKeys; ++i) {
      ASSERT_EQ(store.contains(keys[i]), live[i]) << "key " << i;
    }
  };
  check_all();

  Rng rng(42);
  std::vector<std::size_t> order(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) order[i] = i;
  for (std::size_t i = kKeys - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform(i + 1)]);
  }
  const std::size_t deletes = kKeys * 9 / 10;
  for (std::size_t n = 0; n < deletes; ++n) {
    ASSERT_TRUE(store.flush_page(keys[order[n]]));
    live[order[n]] = false;
    if (n % 1000 == 999) check_all();
  }
  check_all();
  EXPECT_EQ(store.used_pages(), kKeys - deletes);
  EXPECT_EQ(store.ephemeral_pages() + store.pool_pages(a), kKeys - deletes);

  // Survivors keep their payloads; flushed keys can be stored again.
  for (std::size_t n = deletes; n < kKeys; ++n) {
    const std::size_t i = order[n];
    if (keys[i].pool == a) {
      ASSERT_EQ(store.get(keys[i]), i + 1);
    }
  }
  for (std::size_t n = 0; n < deletes; n += 3) {
    ASSERT_EQ(store.put(keys[order[n]], 7), PutResult::kStored);
    live[order[n]] = true;
  }
  check_all();
}

}  // namespace
}  // namespace smartmem::tmem
