// Workload abstraction.
//
// A workload is a deterministic generator of coarse-grained memory
// operations (allocate/free region, touch a window of pages under a given
// access pattern, read file pages, sleep, emit a milestone marker). The
// vCPU runner in smartmem::core executes the ops against a GuestKernel,
// advancing simulated time by the per-touch compute cost plus whatever the
// memory system charges (faults, tmem copies, disk waits).
//
// Randomized patterns (uniform / zipf) are *specified* here but *drawn* by
// the runner from its per-VM RNG, so a workload object itself stays a pure
// deterministic iterator and a scenario run is reproducible from its seed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"

namespace smartmem::workloads {

/// Logical region handle, scoped to one workload instance: the n-th
/// kAllocRegion op creates region n.
using RegionId = std::uint32_t;

enum class AccessPattern : std::uint8_t {
  kSequential,  // window traversed in order (wrapping)
  kUniform,     // uniform random pages in the window
  kZipf,        // zipf-distributed pages (hot head) in the window
};

struct MemOp {
  enum class Kind : std::uint8_t {
    kAllocRegion,   // reserve `pages` anonymous pages as a new region
    kFreeRegion,    // release `region` entirely
    kTouchWindow,   // perform `touches` accesses in region[window_offset,
                    // window_offset+window_pages) under `pattern`
    kRegisterFile,  // declare dataset file `file_id` of `pages` pages
    kFileRead,      // read `touches` pages of `file_id` starting at
                    // `file_index` (sequential)
    kSleep,         // idle for `duration`
    kMarker,        // milestone: record (label, time)
  };

  Kind kind = Kind::kMarker;

  // kAllocRegion / kRegisterFile
  PageCount pages = 0;

  // kFreeRegion / kTouchWindow
  RegionId region = 0;

  // kTouchWindow
  PageCount window_offset = 0;
  PageCount window_pages = 0;
  PageCount touches = 0;
  AccessPattern pattern = AccessPattern::kSequential;
  double zipf_s = 0.9;
  bool write = false;
  SimTime per_touch_compute = 0;

  // kRegisterFile / kFileRead
  std::uint64_t file_id = 0;
  std::uint32_t file_index = 0;

  // kSleep
  SimTime duration = 0;

  // kMarker
  std::string label;

  // ---- Convenience constructors ------------------------------------------
  static MemOp alloc(PageCount pages);
  static MemOp free_region(RegionId region);
  static MemOp touch(RegionId region, PageCount window_offset,
                     PageCount window_pages, PageCount touches,
                     AccessPattern pattern, bool write,
                     SimTime per_touch_compute, double zipf_s = 0.9);
  static MemOp register_file(std::uint64_t file_id, PageCount pages);
  static MemOp file_read(std::uint64_t file_id, std::uint32_t start,
                         PageCount count, SimTime per_touch_compute);
  static MemOp sleep(SimTime duration);
  static MemOp marker(std::string label);
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  /// Next operation, or nullopt when the workload has run to completion.
  /// Workloads that "run until stopped" (usemem's final phase) never return
  /// nullopt; the runner cuts them off externally.
  virtual std::optional<MemOp> next() = 0;
};

using WorkloadPtr = std::unique_ptr<Workload>;

/// Factory type used by scenarios: one fresh workload per VM per run.
using WorkloadFactory = std::unique_ptr<Workload> (*)();

}  // namespace smartmem::workloads
