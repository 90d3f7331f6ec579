#include "mem/lru.hpp"

#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace smartmem::mem {
namespace {

using Victim = LruLists::Victim;

// Each test page sits in frame f and carries key 1000 + f, so a victim
// proves both halves of what pop_victim hands back.
constexpr std::uint64_t key_of(Pfn frame) { return 1000 + frame; }
constexpr Victim victim(Pfn frame) { return Victim{frame, key_of(frame)}; }

void insert(LruLists& lru, Pfn frame) { lru.insert(frame, key_of(frame)); }

TEST(LruTest, EmptyHasNoVictim) {
  LruLists lru;
  EXPECT_FALSE(lru.pop_victim().has_value());
  EXPECT_EQ(lru.size(), 0u);
}

TEST(LruTest, InsertGoesToInactive) {
  LruLists lru;
  insert(lru, 1);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.inactive_size(), 1u);
  EXPECT_EQ(lru.active_size(), 0u);
  EXPECT_EQ(lru.pop_victim(), victim(1));
}

TEST(LruTest, VictimIsOldestInactive) {
  LruLists lru;
  insert(lru, 1);
  insert(lru, 2);
  insert(lru, 3);
  EXPECT_EQ(lru.pop_victim(), victim(1));
  EXPECT_EQ(lru.pop_victim(), victim(2));
  EXPECT_EQ(lru.pop_victim(), victim(3));
}

TEST(LruTest, TouchPromotesToActive) {
  LruLists lru;
  insert(lru, 1);
  insert(lru, 2);
  lru.touch(1);
  EXPECT_EQ(lru.active_size(), 1u);
  // 2 is the only inactive page left; it should be the victim.
  EXPECT_EQ(lru.pop_victim(), victim(2));
}

TEST(LruTest, TouchOnActiveIsNoOp) {
  LruLists lru;
  insert(lru, 1);
  lru.touch(1);
  lru.touch(1);
  EXPECT_EQ(lru.active_size(), 1u);
}

TEST(LruTest, TouchUntrackedIsIgnored) {
  LruLists lru;
  lru.touch(99);  // beyond the table
  insert(lru, 5);
  lru.remove(5);
  lru.touch(5);   // inside the table, no longer tracked
  lru.touch(2);   // inside the table, never tracked
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.active_size(), 0u);
}

TEST(LruTest, RemoveFromEitherList) {
  LruLists lru;
  insert(lru, 1);
  insert(lru, 2);
  lru.touch(2);
  lru.remove(1);
  lru.remove(2);
  lru.remove(3);    // untracked: no-op
  lru.remove(999);  // beyond the table: no-op
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_FALSE(lru.pop_victim().has_value());
}

TEST(LruTest, ActivePagesDemotedWhenInactiveRunsDry) {
  LruLists lru(3);
  for (Pfn f = 0; f < 9; ++f) insert(lru, f);
  for (Pfn f = 0; f < 9; ++f) lru.touch(f);  // everything active
  EXPECT_EQ(lru.inactive_size(), 0u);
  // Victim must come from the cold end of the active list (frame 0).
  EXPECT_EQ(lru.pop_victim(), victim(0));
  EXPECT_EQ(lru.size(), 8u);
}

TEST(LruTest, EvictionOrderRespectsPromotion) {
  LruLists lru;
  for (Pfn f = 0; f < 4; ++f) insert(lru, f);
  lru.touch(0);  // 0 promoted; inactive order (oldest first): 1, 2, 3
  EXPECT_EQ(lru.pop_victim(), victim(1));
  EXPECT_EQ(lru.pop_victim(), victim(2));
  EXPECT_EQ(lru.pop_victim(), victim(3));
  // Only the active page 0 remains.
  EXPECT_EQ(lru.pop_victim(), victim(0));
}

TEST(LruTest, LargePopulationDrainsCompletely) {
  LruLists lru;
  for (Pfn f = 0; f < 10000; ++f) insert(lru, f);
  for (Pfn f = 0; f < 10000; f += 2) lru.touch(f);
  std::size_t drained = 0;
  while (lru.pop_victim()) ++drained;
  EXPECT_EQ(drained, 10000u);
}

// The key-addressed list+map LRU that LruLists replaced, kept verbatim in
// behaviour as the reference for the differential test below.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint32_t inactive_ratio)
      : inactive_ratio_(inactive_ratio == 0 ? 1 : inactive_ratio) {}

  void insert(std::uint64_t key) {
    inactive_.push_front(key);
    where_.emplace(key, Pos{false, inactive_.begin()});
  }

  void touch(std::uint64_t key) {
    auto it = where_.find(key);
    if (it == where_.end() || it->second.active) return;
    inactive_.erase(it->second.it);
    active_.push_front(key);
    it->second = Pos{true, active_.begin()};
  }

  void remove(std::uint64_t key) {
    auto it = where_.find(key);
    if (it == where_.end()) return;
    (it->second.active ? active_ : inactive_).erase(it->second.it);
    where_.erase(it);
  }

  std::optional<std::uint64_t> pop_victim() {
    if (where_.empty()) return std::nullopt;
    if (inactive_.empty()) {
      const std::size_t want_inactive = where_.size() / inactive_ratio_;
      while (inactive_.size() < want_inactive && !active_.empty()) {
        const std::uint64_t key = active_.back();
        active_.pop_back();
        inactive_.push_front(key);
        where_[key] = Pos{false, inactive_.begin()};
      }
    }
    std::list<std::uint64_t>& from = inactive_.empty() ? active_ : inactive_;
    const std::uint64_t key = from.back();
    from.pop_back();
    where_.erase(key);
    return key;
  }

  std::size_t size() const { return where_.size(); }
  std::size_t active_size() const { return active_.size(); }
  std::size_t inactive_size() const { return inactive_.size(); }

 private:
  struct Pos {
    bool active;
    std::list<std::uint64_t>::iterator it;
  };
  std::uint32_t inactive_ratio_;
  std::list<std::uint64_t> active_;
  std::list<std::uint64_t> inactive_;
  std::unordered_map<std::uint64_t, Pos> where_;
};

struct DiffParams {
  std::uint64_t seed;
  std::uint32_t inactive_ratio;
  Pfn frames;
};

class LruDifferentialTest : public ::testing::TestWithParam<DiffParams> {};

// Random insert/touch/remove/pop sequences, plus the guest's second-chance
// re-insert of a victim into its own frame, must give the same victims
// (frame and key) and list sizes as the reference at every step.
TEST_P(LruDifferentialTest, MatchesListAndMapReference) {
  const DiffParams params = GetParam();
  LruLists lru(params.inactive_ratio);
  ReferenceLru ref(params.inactive_ratio);
  Rng rng(params.seed);
  std::vector<std::optional<std::uint64_t>> key_in(params.frames);
  std::unordered_map<std::uint64_t, Pfn> frame_of;
  std::uint64_t next_key = 1;
  std::size_t ops = 0;
  std::size_t victims = 0;

  for (int step = 0; step < 70000; ++step) {
    const Pfn frame = rng.uniform(params.frames);
    const std::uint64_t op = rng.uniform(100);
    if (op < 35) {  // insert a fresh page into a free frame
      if (key_in[frame]) continue;
      ++ops;
      const std::uint64_t key = next_key++;
      lru.insert(frame, key);
      ref.insert(key);
      key_in[frame] = key;
      frame_of[key] = frame;
    } else if (op < 65) {  // touch, tracked or not
      ++ops;
      lru.touch(frame);
      if (key_in[frame]) ref.touch(*key_in[frame]);
    } else if (op < 75) {  // remove, tracked or not
      ++ops;
      lru.remove(frame);
      if (key_in[frame]) {
        ref.remove(*key_in[frame]);
        frame_of.erase(*key_in[frame]);
        key_in[frame].reset();
      }
    } else {  // pop a victim; give some a second chance in place
      ++ops;
      const auto got = lru.pop_victim();
      const auto want = ref.pop_victim();
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (!got) continue;
      ++victims;
      ASSERT_EQ(got->key, *want) << "step " << step;
      ASSERT_EQ(got->frame, frame_of.at(*want)) << "step " << step;
      if (rng.chance(0.3)) {
        lru.insert(got->frame, got->key);
        ref.insert(got->key);
      } else {
        key_in[got->frame].reset();
        frame_of.erase(got->key);
      }
    }
    ASSERT_EQ(lru.size(), ref.size()) << "step " << step;
    ASSERT_EQ(lru.active_size(), ref.active_size()) << "step " << step;
    ASSERT_EQ(lru.inactive_size(), ref.inactive_size()) << "step " << step;
  }
  EXPECT_GE(ops, 50000u);
  EXPECT_GT(victims, 10000u);
  // Drain: the remaining victim order must match too.
  while (const auto want = ref.pop_victim()) {
    const auto got = lru.pop_victim();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->key, *want);
    ASSERT_EQ(got->frame, frame_of.at(*want));
  }
  EXPECT_FALSE(lru.pop_victim().has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruDifferentialTest,
                         ::testing::Values(DiffParams{1, 3, 300},
                                           DiffParams{2, 3, 64},
                                           DiffParams{3, 1, 400},
                                           DiffParams{4, 5, 256}));

}  // namespace
}  // namespace smartmem::mem
