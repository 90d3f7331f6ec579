// A workload defined by an explicit list of ops, optionally repeated.
// Used by unit tests and as the base iterator for the synthetic benchmarks.
#pragma once

#include <vector>

#include "workloads/workload.hpp"

namespace smartmem::workloads {

class ScriptWorkload : public Workload {
 public:
  /// Plays `ops` in order, `repeats` times (0 = forever).
  explicit ScriptWorkload(std::vector<MemOp> ops, std::size_t repeats = 1,
                          const char* name = "script");

  const char* name() const override { return name_; }
  std::optional<MemOp> next() override;

 private:
  std::vector<MemOp> ops_;
  std::size_t repeats_;
  const char* name_;
  std::size_t cursor_ = 0;
  std::size_t done_repeats_ = 0;
};

}  // namespace smartmem::workloads
