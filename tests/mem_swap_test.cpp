#include "mem/swap.hpp"

#include <gtest/gtest.h>

#include <set>

namespace smartmem::mem {
namespace {

TEST(SwapTest, AllocatesDistinctSlotsUpToCapacity) {
  SwapSpace swap(4);
  std::set<SwapSlot> slots;
  for (int i = 0; i < 4; ++i) {
    const auto s = swap.allocate();
    ASSERT_TRUE(s.has_value());
    EXPECT_TRUE(slots.insert(*s).second);
  }
  EXPECT_FALSE(swap.allocate().has_value());
  EXPECT_EQ(swap.used_slots(), 4u);
}

TEST(SwapTest, FreeRecyclesSlot) {
  SwapSpace swap(2);
  const SwapSlot a = *swap.allocate();
  (void)*swap.allocate();
  swap.free(a);
  EXPECT_EQ(swap.free_slots(), 1u);
  EXPECT_EQ(*swap.allocate(), a);
}

TEST(SwapTest, FrontswapBitmap) {
  SwapSpace swap(4);
  const SwapSlot s = *swap.allocate();
  EXPECT_FALSE(swap.in_frontswap(s));
  swap.set_in_frontswap(s, true);
  EXPECT_TRUE(swap.in_frontswap(s));
  swap.free(s);
  const SwapSlot again = *swap.allocate();
  ASSERT_EQ(again, s);
  EXPECT_FALSE(swap.in_frontswap(again)) << "flag must reset on free";
}

TEST(SwapTest, DiskContentRoundTrip) {
  SwapSpace swap(4);
  const SwapSlot s = *swap.allocate();
  EXPECT_FALSE(swap.load_disk_content(s).has_value());
  swap.store_disk_content(s, 0xdeadbeef);
  EXPECT_EQ(swap.load_disk_content(s), 0xdeadbeefu);
  swap.free(s);
  const SwapSlot again = *swap.allocate();
  ASSERT_EQ(again, s);
  EXPECT_FALSE(swap.load_disk_content(again).has_value());
}

TEST(SwapTest, DiskContentGoneAfterFree) {
  SwapSpace swap(4);
  const SwapSlot a = *swap.allocate();
  const SwapSlot b = *swap.allocate();
  swap.store_disk_content(a, 11);
  swap.store_disk_content(b, 22);
  swap.free(a);
  // The freed slot sits below the high-water mark but holds nothing.
  EXPECT_FALSE(swap.in_use(a));
  EXPECT_FALSE(swap.load_disk_content(a).has_value());
  EXPECT_EQ(swap.load_disk_content(b), 22u);
}

TEST(SwapTest, ReusedSlotStartsEmpty) {
  SwapSpace swap(4);
  const SwapSlot s = *swap.allocate();
  swap.store_disk_content(s, 7);
  swap.set_in_frontswap(s, true);
  swap.free(s);
  const SwapSlot again = *swap.allocate();
  ASSERT_EQ(again, s);
  EXPECT_FALSE(swap.load_disk_content(again).has_value());
  EXPECT_FALSE(swap.in_frontswap(again));
  swap.store_disk_content(again, 8);
  EXPECT_EQ(swap.load_disk_content(again), 8u);
}

TEST(SwapTest, NoContentPastHighWaterMark) {
  SwapSpace swap(8);
  const SwapSlot s = *swap.allocate();
  swap.store_disk_content(s, 5);
  // Slots the device has but never handed out, and slots past its end.
  for (SwapSlot slot = s + 1; slot < 8; ++slot) {
    EXPECT_FALSE(swap.in_use(slot));
    EXPECT_FALSE(swap.load_disk_content(slot).has_value());
  }
  EXPECT_FALSE(swap.load_disk_content(8).has_value());
  EXPECT_FALSE(swap.load_disk_content(kInvalidSlot).has_value());
  EXPECT_EQ(swap.load_disk_content(s), 5u);
}

TEST(SwapTest, InUseChecks) {
  SwapSpace swap(4);
  EXPECT_FALSE(swap.in_use(0));
  EXPECT_FALSE(swap.in_use(999));  // out of range
  const SwapSlot s = *swap.allocate();
  EXPECT_TRUE(swap.in_use(s));
}

TEST(SwapTest, StatsTrackPeak) {
  SwapSpace swap(8);
  const SwapSlot a = *swap.allocate();
  (void)*swap.allocate();
  (void)*swap.allocate();
  swap.free(a);
  EXPECT_EQ(swap.stats().slots_allocated, 3u);
  EXPECT_EQ(swap.stats().slots_freed, 1u);
  EXPECT_EQ(swap.stats().peak_in_use, 3u);
}

}  // namespace
}  // namespace smartmem::mem
