#include "mem/page_table.hpp"

#include <gtest/gtest.h>

namespace smartmem::mem {
namespace {

TEST(AddressSpaceTest, RegionsAreContiguousAndSequential) {
  AddressSpace as(0);
  const Vpn a = as.map_region(10);
  const Vpn b = as.map_region(5);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 10u);
  EXPECT_EQ(as.reserved_pages(), 15u);
}

TEST(AddressSpaceTest, NewRegionPagesAreUntouched) {
  AddressSpace as(0);
  const Vpn base = as.map_region(3);
  for (Vpn v = base; v < base + 3; ++v) {
    EXPECT_EQ(as.entry(v).state(), PageState::kUntouched);
    EXPECT_TRUE(as.valid(v));
  }
}

TEST(AddressSpaceTest, EntryOutOfRangeThrows) {
  AddressSpace as(0);
  as.map_region(2);
  EXPECT_THROW(as.entry(2), std::out_of_range);
  EXPECT_FALSE(as.valid(2));
}

TEST(AddressSpaceTest, UnmapResetsEntries) {
  AddressSpace as(0);
  const Vpn base = as.map_region(2);
  as.entry(base).set_state(PageState::kUntouched);
  as.unmap_region(base, 2);
  EXPECT_EQ(as.entry(base).state(), PageState::kUnmapped);
  EXPECT_FALSE(as.valid(base));
}

TEST(PageTableEntryTest, PackedFieldsRoundTripIndependently) {
  static_assert(sizeof(PageTableEntry) == 16);
  PageTableEntry pte;
  EXPECT_EQ(pte.state(), PageState::kUnmapped);
  EXPECT_EQ(pte.frame(), kInvalidPfn);
  EXPECT_FALSE(pte.referenced());
  EXPECT_FALSE(pte.clean_in_swap());
  EXPECT_EQ(pte.slot, kInvalidSlot);

  const Pfn top = PageTableEntry::kFrameLimit - 1;
  pte.set_frame(top);
  pte.set_state(PageState::kSwapped);
  pte.set_referenced(true);
  pte.set_clean_in_swap(true);
  EXPECT_EQ(pte.frame(), top);
  EXPECT_EQ(pte.state(), PageState::kSwapped);
  EXPECT_TRUE(pte.referenced());
  EXPECT_TRUE(pte.clean_in_swap());

  // Each setter leaves the other fields alone.
  pte.set_referenced(false);
  EXPECT_TRUE(pte.clean_in_swap());
  EXPECT_EQ(pte.frame(), top);
  pte.set_state(PageState::kResident);
  EXPECT_EQ(pte.frame(), top);
  EXPECT_TRUE(pte.clean_in_swap());
  pte.set_frame(0);
  EXPECT_EQ(pte.state(), PageState::kResident);
  EXPECT_EQ(pte.frame(), 0u);
  pte.set_frame(kInvalidPfn);
  EXPECT_EQ(pte.frame(), kInvalidPfn);
  EXPECT_EQ(pte.state(), PageState::kResident);
  EXPECT_TRUE(pte.clean_in_swap());
  EXPECT_FALSE(pte.referenced());
}

TEST(AddressSpaceTest, ResidentCounter) {
  AddressSpace as(0);
  as.map_region(4);
  as.note_resident_delta(+3);
  EXPECT_EQ(as.resident_pages(), 3u);
  as.note_resident_delta(-2);
  EXPECT_EQ(as.resident_pages(), 1u);
}

}  // namespace
}  // namespace smartmem::mem
