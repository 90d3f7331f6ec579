#include "workloads/script_workload.hpp"

#include <utility>

namespace smartmem::workloads {

ScriptWorkload::ScriptWorkload(std::vector<MemOp> ops, std::size_t repeats,
                               const char* name)
    : ops_(std::move(ops)), repeats_(repeats), name_(name) {}

std::optional<MemOp> ScriptWorkload::next() {
  if (ops_.empty()) return std::nullopt;
  if (cursor_ == ops_.size()) {
    ++done_repeats_;
    if (repeats_ != 0 && done_repeats_ >= repeats_) return std::nullopt;
    cursor_ = 0;
  }
  return ops_[cursor_++];
}

}  // namespace smartmem::workloads
