// Active/inactive page lists approximating the Linux kernel's Pageframe
// Replacement Algorithm (PFRA), which the paper's guest kernels run.
//
// The model: a page enters the inactive list on first mapping; a touch while
// inactive promotes it to the active list (the "referenced" second-chance
// bit); reclaim evicts from the inactive tail, refilling the inactive list
// from the active tail when it runs dry. Touches of already-active pages are
// free, matching the fact that real hardware only sets the accessed bit.
//
// Like Linux, which threads its LRU through `struct page`, the lists are
// intrusive and indexed by page frame: every tracked frame owns one
// {key, prev, next, list} node in a table indexed by pfn. The caller names
// pages by the frame it already holds, so no operation hashes or allocates;
// the table only grows, up to the highest frame ever tracked.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace smartmem::mem {

class LruLists {
 public:
  /// What pop_victim hands back: the frame and the caller's key for the
  /// page it held.
  struct Victim {
    Pfn frame = kInvalidPfn;
    std::uint64_t key = 0;

    friend bool operator==(const Victim&, const Victim&) = default;
  };

  /// `inactive_ratio`: reclaim demotes active pages whenever the inactive
  /// list holds less than 1/inactive_ratio of all tracked pages (Linux uses a
  /// RAM-dependent ratio; 3 is representative for the VM sizes modelled).
  explicit LruLists(std::uint32_t inactive_ratio = 3);

  /// Starts tracking the page held in `frame` (which must not be tracked
  /// already). `key` is the caller's name for the page, returned by
  /// pop_victim.
  void insert(Pfn frame, std::uint64_t key);

  /// Records an access. Promotes inactive pages to the active list. No-op
  /// if the frame is untracked.
  void touch(Pfn frame);

  /// Stops tracking a frame (unmapped/freed). No-op if untracked.
  void remove(Pfn frame);

  /// Picks the eviction victim: the inactive tail (oldest), demoting from
  /// the active list first if the inactive side is starved. Returns nullopt
  /// when no page is tracked. The victim is removed from the lists.
  std::optional<Victim> pop_victim();

  std::size_t size() const { return active_.size + inactive_.size; }
  std::size_t active_size() const { return active_.size; }
  std::size_t inactive_size() const { return inactive_.size; }

 private:
  using Link = std::uint32_t;  // a frame number, or kNil
  static constexpr Link kNil = ~0u;

  enum class Which : std::uint8_t { kNone, kActive, kInactive };

  struct Node {
    std::uint64_t key = 0;
    Link prev = kNil;  // towards the list head (newer)
    Link next = kNil;  // towards the list tail (older)
    Which list = Which::kNone;
  };

  struct List {
    Link head = kNil;  // newest
    Link tail = kNil;  // oldest: the next victim
    std::size_t size = 0;
  };

  List& list_of(Which which) {
    return which == Which::kActive ? active_ : inactive_;
  }
  bool tracked(Pfn frame) const {
    return frame < nodes_.size() && nodes_[frame].list != Which::kNone;
  }
  void push_front(Which which, Link n);
  void unlink(Link n);
  void rebalance();

  std::uint32_t inactive_ratio_;
  std::vector<Node> nodes_;  // indexed by pfn
  List active_;              // head = most recently promoted
  List inactive_;
};

}  // namespace smartmem::mem
