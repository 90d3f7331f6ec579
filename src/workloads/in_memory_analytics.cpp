#include "workloads/in_memory_analytics.hpp"

#include <stdexcept>

#include "common/strfmt.hpp"

namespace smartmem::workloads {

namespace {
/// The ratings scan dirties its pages every k-th iteration (in-place factor
/// updates + JVM heap rewriting); other scans are reads.
constexpr std::size_t kScanWritePeriod = 2;
}  // namespace

InMemoryAnalytics::InMemoryAnalytics(InMemoryAnalyticsConfig config)
    : config_(config) {
  if (config_.working_set_pages == 0 || config_.runs == 0 ||
      config_.iterations == 0) {
    throw std::invalid_argument("InMemoryAnalytics: bad config");
  }
}

std::optional<MemOp> InMemoryAnalytics::next() {
  switch (phase_) {
    case Phase::kRegisterFile:
      phase_ = Phase::kRunStart;
      if (config_.dataset_pages > 0) {
        return MemOp::register_file(config_.file_id, config_.dataset_pages);
      }
      return next();

    case Phase::kRunStart:
      phase_ = config_.dataset_pages > 0 ? Phase::kLoadDataset
                                         : Phase::kAllocModel;
      return MemOp::marker(strfmt("run:%zu:start", run_ + 1));

    case Phase::kLoadDataset:
      // Each run re-reads its input (a fresh process in the real system).
      phase_ = Phase::kAllocModel;
      return MemOp::file_read(config_.file_id, 0, config_.dataset_pages,
                              config_.per_touch_compute / 2);

    case Phase::kAllocModel:
      model_region_ = next_region_++;
      phase_ = Phase::kInitModel;
      return MemOp::alloc(config_.working_set_pages);

    case Phase::kInitModel:
      iter_ = 0;
      phase_ = Phase::kIterScan;
      // Build the in-memory model: sequential write of the working set.
      return MemOp::touch(model_region_, 0, config_.working_set_pages,
                          config_.working_set_pages,
                          AccessPattern::kSequential, /*write=*/true,
                          config_.per_touch_compute);

    case Phase::kIterScan: {
      // Ratings sweep: sequential read over the whole model.
      const auto scan_touches = static_cast<PageCount>(
          static_cast<double>(config_.working_set_pages) *
          (1.0 - config_.random_fraction));
      phase_ = Phase::kIterUpdate;
      // Every kScanWritePeriod-th scan dirties what it reads (in-place
      // factor updates, JVM heap rewriting); the rest are pure reads.
      const bool write = iter_ % kScanWritePeriod == kScanWritePeriod - 1;
      return MemOp::touch(model_region_, 0, config_.working_set_pages,
                          scan_touches, AccessPattern::kSequential, write,
                          config_.per_touch_compute);
    }

    case Phase::kIterUpdate: {
      // Factor updates: zipf-skewed writes (hot users/items dominate).
      const auto update_touches = static_cast<PageCount>(
          static_cast<double>(config_.working_set_pages) *
          config_.random_fraction);
      ++iter_;
      phase_ = iter_ < config_.iterations ? Phase::kIterScan : Phase::kRunDone;
      return MemOp::touch(model_region_, 0, config_.working_set_pages,
                          update_touches, AccessPattern::kZipf,
                          /*write=*/true, config_.per_touch_compute,
                          config_.zipf_s);
    }

    case Phase::kRunDone:
      phase_ = Phase::kFreeModel;
      return MemOp::marker(strfmt("run:%zu:done", run_ + 1));

    case Phase::kFreeModel: {
      const RegionId region = model_region_;
      ++run_;
      if (run_ >= config_.runs) {
        phase_ = Phase::kFinished;
      } else {
        phase_ = config_.sleep_between_runs > 0 ? Phase::kSleep
                                                : Phase::kRunStart;
      }
      return MemOp::free_region(region);
    }

    case Phase::kSleep:
      phase_ = Phase::kRunStart;
      return MemOp::sleep(config_.sleep_between_runs);

    case Phase::kFinished:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace smartmem::workloads
