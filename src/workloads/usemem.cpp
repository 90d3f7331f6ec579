#include "workloads/usemem.hpp"

#include <cassert>
#include <stdexcept>

#include "common/strfmt.hpp"
#include "common/units.hpp"

namespace smartmem::workloads {
namespace {

std::string mib_label(PageCount pages) {
  return strfmt("%.0f", mib_from_pages(pages));
}

}  // namespace

Usemem::Usemem(UsememConfig config) : config_(config) {
  if (config_.start_pages == 0 || config_.step_pages == 0 ||
      config_.max_pages < config_.start_pages) {
    throw std::invalid_argument("Usemem: bad geometry");
  }
}

PageCount Usemem::total_allocated() const {
  if (chunk_count_ == 0) return 0;
  return config_.start_pages + (chunk_count_ - 1) * config_.step_pages;
}

std::optional<MemOp> Usemem::next() {
  switch (phase_) {
    case Phase::kAlloc: {
      const PageCount chunk =
          chunk_count_ == 0 ? config_.start_pages : config_.step_pages;
      ++chunk_count_;
      at_max_ = total_allocated() >= config_.max_pages;
      phase_ = Phase::kAllocMarker;
      return MemOp::alloc(chunk);
    }

    case Phase::kAllocMarker:
      phase_ = Phase::kTraverse;
      traverse_cursor_ = 0;
      return MemOp::marker(strfmt("alloc:%s", mib_label(total_allocated()).c_str()));

    case Phase::kTraverse: {
      if (traverse_cursor_ < chunk_count_) {
        const auto region = static_cast<RegionId>(traverse_cursor_);
        const PageCount region_pages =
            region == 0 ? config_.start_pages : config_.step_pages;
        ++traverse_cursor_;
        // Linear write/read traversal: modelled as writes, which keeps every
        // page dirty and forces the swap path under pressure.
        return MemOp::touch(region, 0, region_pages, region_pages,
                            AccessPattern::kSequential, /*write=*/true,
                            config_.per_touch_compute);
      }
      phase_ = Phase::kSizeDone;
      return next();
    }

    case Phase::kSizeDone: {
      if (!at_max_) {
        phase_ = Phase::kAlloc;
        return MemOp::marker(
            strfmt("size-done:%s", mib_label(total_allocated()).c_str()));
      }
      // At maximum size: first finish the size-done marker once, then loop
      // passes until stopped (or the configured number of passes).
      if (max_passes_done_ == 0) {
        ++max_passes_done_;
        phase_ = Phase::kTraverse;
        traverse_cursor_ = 0;
        return MemOp::marker(
            strfmt("size-done:%s", mib_label(total_allocated()).c_str()));
      }
      if (config_.passes_at_max != 0 &&
          max_passes_done_ > config_.passes_at_max) {
        return std::nullopt;
      }
      ++max_passes_done_;
      phase_ = Phase::kTraverse;
      traverse_cursor_ = 0;
      return MemOp::marker(strfmt("pass:%zu", max_passes_done_ - 1));
    }
  }
  return std::nullopt;
}

}  // namespace smartmem::workloads
