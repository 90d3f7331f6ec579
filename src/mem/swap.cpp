#include "mem/swap.hpp"

#include <algorithm>
#include <cassert>

namespace smartmem::mem {

SwapSpace::SwapSpace(PageCount total_slots) : total_slots_(total_slots) {}

std::optional<SwapSlot> SwapSpace::allocate() {
  SwapSlot slot;
  if (!free_list_.empty()) {
    slot = free_list_.back();
    free_list_.pop_back();
  } else if (slots_.size() < total_slots_) {
    slot = static_cast<SwapSlot>(slots_.size());
    slots_.emplace_back();
  } else {
    return std::nullopt;
  }
  assert(!slots_[slot].in_use);
  slots_[slot].in_use = true;
  ++used_;
  ++stats_.slots_allocated;
  stats_.peak_in_use = std::max(stats_.peak_in_use, used_);
  return slot;
}

void SwapSpace::free(SwapSlot slot) {
  assert(in_use(slot) && "freeing unused swap slot");
  slots_[slot] = Slot{};
  free_list_.push_back(slot);
  --used_;
  ++stats_.slots_freed;
}

bool SwapSpace::in_use(SwapSlot slot) const {
  return slot < slots_.size() && slots_[slot].in_use;
}

void SwapSpace::set_in_frontswap(SwapSlot slot, bool value) {
  assert(in_use(slot));
  slots_[slot].frontswap = value;
}

bool SwapSpace::in_frontswap(SwapSlot slot) const {
  assert(in_use(slot));
  return slots_[slot].frontswap;
}

void SwapSpace::store_disk_content(SwapSlot slot, PageContent content) {
  assert(in_use(slot));
  slots_[slot].disk_content = content;
  slots_[slot].has_disk_content = true;
}

std::optional<PageContent> SwapSpace::load_disk_content(SwapSlot slot) const {
  if (slot >= slots_.size() || !slots_[slot].has_disk_content) {
    return std::nullopt;
  }
  return slots_[slot].disk_content;
}

}  // namespace smartmem::mem
