// The usemem micro-benchmark, reimplemented from the paper's description
// (Section IV): allocate 128 MB, traverse it linearly performing write/read
// operations; after each complete traversal allocate another 128 MB, up to
// 1 GB; then keep traversing the full 1 GB until stopped.
//
// Milestone markers let scenarios coordinate the staggered starts/stops of
// the Usemem Scenario and let the Figure 7 bench compute per-allocation-size
// running times:
//   "alloc:<MiB>"      emitted when the allocation grows to <MiB> total
//   "size-done:<MiB>"  emitted after the full traversal at that size
//   "pass:<n>"         emitted after each extra traversal at the maximum
#pragma once

#include "workloads/workload.hpp"

namespace smartmem::workloads {

struct UsememConfig {
  PageCount start_pages = 0;  // first allocation (128 MiB in the paper)
  PageCount step_pages = 0;   // increment (128 MiB)
  PageCount max_pages = 0;    // cap (1 GiB)
  /// Compute time the benchmark spends on each page it touches.
  SimTime per_touch_compute = 500;  // 0.5 us
  /// 0 = keep traversing at max size until externally stopped (paper
  /// behaviour); otherwise finish after this many passes at max size.
  std::size_t passes_at_max = 0;
};

class Usemem final : public Workload {
 public:
  explicit Usemem(UsememConfig config);

  const char* name() const override { return "usemem"; }
  std::optional<MemOp> next() override;

  const UsememConfig& config() const { return config_; }

 private:
  enum class Phase : std::uint8_t { kAlloc, kAllocMarker, kTraverse, kSizeDone };

  PageCount total_allocated() const;

  UsememConfig config_;
  Phase phase_ = Phase::kAlloc;
  std::size_t chunk_count_ = 0;      // regions allocated so far
  std::size_t traverse_cursor_ = 0;  // region being traversed
  std::size_t max_passes_done_ = 0;
  bool at_max_ = false;
};

}  // namespace smartmem::workloads
