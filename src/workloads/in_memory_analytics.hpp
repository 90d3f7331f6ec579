// Synthetic stand-in for CloudSuite's in-memory-analytics benchmark
// (collaborative filtering over the MovieLens dataset — [16], [17]).
//
// What tmem sees from the real benchmark, and what this model reproduces:
//   1. a dataset load phase (file reads, page-cache growth);
//   2. a model-build phase that allocates a working set larger than the VM's
//      usable RAM and initializes it sequentially;
//   3. training iterations that mix sequential sweeps with skewed random
//      access over the working set (hot user/item factors), keeping steady
//      memory pressure with phase boundaries between iterations;
//   4. optionally a second complete run after an idle gap (Scenario 1 runs
//      the benchmark, sleeps 5 s, runs it again).
//
// Markers: "run:<k>:start", "run:<k>:done" per run.
#pragma once

#include "workloads/workload.hpp"

namespace smartmem::workloads {

struct InMemoryAnalyticsConfig {
  std::uint64_t file_id = 10;
  PageCount dataset_pages = 0;      // MovieLens ratings file
  PageCount working_set_pages = 0;  // in-memory model (exceeds usable RAM)
  std::size_t iterations = 5;       // training iterations per run
  std::size_t runs = 1;
  SimTime sleep_between_runs = 0;
  SimTime per_touch_compute = 1 * kMicrosecond;
  /// Fraction of each iteration's accesses that are skewed random writes
  /// (factor updates) rather than the sequential scan (ratings sweep).
  double random_fraction = 0.5;
  double zipf_s = 0.8;
};

class InMemoryAnalytics final : public Workload {
 public:
  explicit InMemoryAnalytics(InMemoryAnalyticsConfig config);

  const char* name() const override { return "in-memory-analytics"; }
  std::optional<MemOp> next() override;

  const InMemoryAnalyticsConfig& config() const { return config_; }

 private:
  enum class Phase : std::uint8_t {
    kRegisterFile,
    kRunStart,
    kLoadDataset,
    kAllocModel,
    kInitModel,
    kIterScan,
    kIterUpdate,
    kRunDone,
    kFreeModel,
    kSleep,
    kFinished,
  };

  InMemoryAnalyticsConfig config_;
  Phase phase_ = Phase::kRegisterFile;
  std::size_t run_ = 0;        // current run (0-based)
  std::size_t iter_ = 0;       // current iteration within the run
  RegionId model_region_ = 0;  // region id of the current run's model
  RegionId next_region_ = 0;   // regions allocated so far
};

}  // namespace smartmem::workloads
