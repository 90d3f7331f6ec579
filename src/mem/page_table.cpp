#include "mem/page_table.hpp"

#include <cassert>
#include <stdexcept>

namespace smartmem::mem {

Vpn AddressSpace::map_region(PageCount pages) {
  const Vpn base = table_.size();
  table_.resize(table_.size() + pages);
  for (PageCount i = 0; i < pages; ++i) {
    table_[base + i].set_state(PageState::kUntouched);
  }
  return base;
}

void AddressSpace::unmap_region(Vpn base, PageCount pages) {
  assert(base + pages <= table_.size());
  for (PageCount i = 0; i < pages; ++i) {
    PageTableEntry& pte = table_[base + i];
    assert(pte.state() != PageState::kResident &&
           "guest kernel must release frames before unmap");
    assert(pte.slot == kInvalidSlot &&
           "guest kernel must release swap slots before unmap");
    pte = PageTableEntry{};
  }
}

PageTableEntry& AddressSpace::entry(Vpn vpn) {
  if (vpn >= table_.size()) {
    throw std::out_of_range("AddressSpace::entry: vpn beyond reserved range");
  }
  return table_[vpn];
}

const PageTableEntry& AddressSpace::entry(Vpn vpn) const {
  if (vpn >= table_.size()) {
    throw std::out_of_range("AddressSpace::entry: vpn beyond reserved range");
  }
  return table_[vpn];
}

bool AddressSpace::valid(Vpn vpn) const {
  return vpn < table_.size() && table_[vpn].state() != PageState::kUnmapped;
}

void AddressSpace::note_resident_delta(std::int64_t delta) {
  if (delta < 0) {
    assert(resident_ >= static_cast<PageCount>(-delta));
    resident_ -= static_cast<PageCount>(-delta);
  } else {
    resident_ += static_cast<PageCount>(delta);
  }
}

}  // namespace smartmem::mem
