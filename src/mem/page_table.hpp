// Per-process anonymous address space: a flat page table plus a bump-pointer
// region allocator. Workloads allocate regions (mmap-style), then touch pages
// inside them; the guest kernel drives the state transitions.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/swap.hpp"

namespace smartmem::mem {

enum class PageState : std::uint8_t {
  kUnmapped,   // vpn not part of any region
  kUntouched,  // region reserved, first touch will zero-fill-allocate
  kResident,   // in a physical frame
  kSwapped,    // evicted; data lives in the slot (tmem or disk)
};

/// One page's entry, 16 bytes so that four share a cache line: the content
/// token, the swap slot, and one word packing the frame number (bits 0-27),
/// the state (28-29) and the two flags (30-31). A frame number must be below
/// kFrameLimit; the guest kernel rejects a RAM size whose frames would not
/// fit.
class PageTableEntry {
 public:
  /// Frame numbers 0 .. kFrameLimit - 1 fit the field; kFrameLimit itself is
  /// the field's "no frame" value, read back as kInvalidPfn.
  static constexpr Pfn kFrameLimit = (1u << 28) - 1;

  PageContent content = 0;  // simulated data token (canonical copy)
  SwapSlot slot = kInvalidSlot;

  PageState state() const {
    return static_cast<PageState>((bits_ >> kStateShift) & 3u);
  }
  void set_state(PageState s) {
    bits_ = (bits_ & ~(3u << kStateShift)) |
            (static_cast<std::uint32_t>(s) << kStateShift);
  }

  Pfn frame() const {
    const std::uint32_t f = bits_ & kFrameMask;
    return f == kFrameMask ? kInvalidPfn : f;
  }
  /// `f` is a frame below kFrameLimit or kInvalidPfn.
  void set_frame(Pfn f) {
    assert(f < kFrameLimit || f == kInvalidPfn);
    const auto field =
        f == kInvalidPfn ? kFrameMask : static_cast<std::uint32_t>(f);
    bits_ = (bits_ & ~kFrameMask) | field;
  }

  /// Hardware accessed bit: set on every touch, consumed by the reclaim
  /// scan's second-chance pass. Lets the hot path avoid any LRU lookup.
  bool referenced() const { return (bits_ & kReferenced) != 0; }
  void set_referenced(bool on) { set_flag(kReferenced, on); }

  /// Swap-cache residency: the page is resident AND `slot` still holds an
  /// identical copy (in tmem or on disk). Linux keeps swapped-in pages in
  /// the swap cache until they are re-dirtied, and frontswap gets are not
  /// exclusive — so a clean page can be evicted again without any put, and
  /// the tmem copy stays charged to the VM until invalidated.
  bool clean_in_swap() const { return (bits_ & kCleanInSwap) != 0; }
  void set_clean_in_swap(bool on) { set_flag(kCleanInSwap, on); }

 private:
  static constexpr std::uint32_t kFrameMask = kFrameLimit;
  static constexpr int kStateShift = 28;
  static constexpr std::uint32_t kReferenced = 1u << 30;
  static constexpr std::uint32_t kCleanInSwap = 1u << 31;

  void set_flag(std::uint32_t flag, bool on) {
    bits_ = on ? (bits_ | flag) : (bits_ & ~flag);
  }

  // kUnmapped, no frame, both flags clear.
  std::uint32_t bits_ = kFrameMask;
};
static_assert(sizeof(PageTableEntry) == 16);

class AddressSpace {
 public:
  using Id = std::uint32_t;

  explicit AddressSpace(Id id) : id_(id) {}

  Id id() const { return id_; }

  /// Reserves a contiguous region of `pages` pages; returns its base vpn.
  Vpn map_region(PageCount pages);

  /// Releases [base, base+pages). The caller (guest kernel) must have
  /// already freed frames and swap slots; entries return to kUnmapped.
  void unmap_region(Vpn base, PageCount pages);

  PageTableEntry& entry(Vpn vpn);
  const PageTableEntry& entry(Vpn vpn) const;
  bool valid(Vpn vpn) const;

  /// Total pages ever reserved (the bump pointer).
  PageCount reserved_pages() const { return table_.size(); }

  /// Pages currently resident in RAM.
  PageCount resident_pages() const { return resident_; }

  /// Called by the guest kernel to keep the resident counter exact.
  void note_resident_delta(std::int64_t delta);

 private:
  Id id_;
  std::vector<PageTableEntry> table_;
  PageCount resident_ = 0;
};

}  // namespace smartmem::mem
