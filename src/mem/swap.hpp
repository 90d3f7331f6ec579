// Swap-slot management for one guest, including the frontswap front end.
//
// Linux's swap path allocates a slot on the swap device for every anonymous
// page it evicts; with frontswap enabled it first offers the page to tmem and
// records, per slot, whether the data lives in tmem or on the disk (the
// frontswap bitmap). This class models exactly that bookkeeping, plus the
// simulated content of disk-resident slots so that correctness tests can
// check a swap-in returns the bytes the matching swap-out stored. All of it
// lives in one record per slot, grown with the high-water mark of slots
// ever handed out rather than sized to the device.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace smartmem::mem {

using SwapSlot = std::uint32_t;
inline constexpr SwapSlot kInvalidSlot = ~0u;

struct SwapStats {
  std::uint64_t slots_allocated = 0;
  std::uint64_t slots_freed = 0;
  std::uint64_t peak_in_use = 0;
};

class SwapSpace {
 public:
  explicit SwapSpace(PageCount total_slots);

  /// Allocates a slot; nullopt when the swap device is full.
  std::optional<SwapSlot> allocate();

  /// Releases a slot (and any disk payload / frontswap mark attached to it).
  void free(SwapSlot slot);

  bool in_use(SwapSlot slot) const;

  /// Marks where the slot's data lives (the frontswap bitmap).
  void set_in_frontswap(SwapSlot slot, bool value);
  bool in_frontswap(SwapSlot slot) const;

  /// Stores/loads the simulated contents of a *disk-resident* slot.
  void store_disk_content(SwapSlot slot, PageContent content);
  std::optional<PageContent> load_disk_content(SwapSlot slot) const;

  PageCount total_slots() const { return total_slots_; }
  PageCount used_slots() const { return used_; }
  PageCount free_slots() const { return total_slots_ - used_; }
  const SwapStats& stats() const { return stats_; }

 private:
  struct Slot {
    PageContent disk_content = 0;
    bool in_use = false;
    bool frontswap = false;
    bool has_disk_content = false;
  };

  PageCount total_slots_;
  PageCount used_ = 0;
  std::vector<Slot> slots_;           // size() is the high-water mark
  std::vector<SwapSlot> free_list_;   // recycled slots
  SwapStats stats_;
};

}  // namespace smartmem::mem
