#include "workloads/graph_analytics.hpp"

#include <stdexcept>

#include "common/strfmt.hpp"

namespace smartmem::workloads {

namespace {
/// The edge sweep dirties its pages every k-th iteration (JVM GC and
/// in-place updates periodically rewrite the heap); other iterations are
/// reads.
constexpr std::size_t kSweepWritePeriod = 2;
}  // namespace

GraphAnalytics::GraphAnalytics(GraphAnalyticsConfig config) : config_(config) {
  if (config_.graph_pages == 0 || config_.vertex_pages == 0 ||
      config_.runs == 0 || config_.iterations == 0) {
    throw std::invalid_argument("GraphAnalytics: bad config");
  }
}

std::optional<MemOp> GraphAnalytics::next() {
  switch (phase_) {
    case Phase::kRegisterFile:
      phase_ = Phase::kRunStart;
      if (config_.edge_file_pages > 0) {
        return MemOp::register_file(config_.file_id, config_.edge_file_pages);
      }
      return next();

    case Phase::kRunStart:
      phase_ = config_.edge_file_pages > 0 ? Phase::kLoadEdges
                                           : Phase::kAllocGraph;
      return MemOp::marker(strfmt("run:%zu:start", run_ + 1));

    case Phase::kLoadEdges:
      phase_ = Phase::kAllocGraph;
      return MemOp::file_read(config_.file_id, 0, config_.edge_file_pages,
                              config_.build_touch_compute);

    case Phase::kAllocGraph:
      graph_region_ = next_region_++;
      phase_ = Phase::kBuildGraph;
      return MemOp::alloc(config_.graph_pages);

    case Phase::kBuildGraph:
      phase_ = Phase::kAllocVertices;
      return MemOp::touch(graph_region_, 0, config_.graph_pages,
                          config_.graph_pages, AccessPattern::kSequential,
                          /*write=*/true, config_.build_touch_compute);

    case Phase::kAllocVertices:
      vertex_region_ = next_region_++;
      phase_ = Phase::kInitVertices;
      return MemOp::alloc(config_.vertex_pages);

    case Phase::kInitVertices:
      phase_ = Phase::kBuildDone;
      return MemOp::touch(vertex_region_, 0, config_.vertex_pages,
                          config_.vertex_pages, AccessPattern::kSequential,
                          /*write=*/true, config_.build_touch_compute);

    case Phase::kBuildDone:
      iter_ = 0;
      phase_ = Phase::kIterSweep;
      return MemOp::marker("build:done");

    case Phase::kIterSweep: {
      // Edge sweep: every iteration walks the full edge arrays. Every
      // kSweepWritePeriod-th sweep dirties the pages it visits (in-place
      // updates plus the JVM collector rewriting the heap); the others are
      // pure reads that can be served from pinned tmem copies.
      phase_ = Phase::kIterScatter;
      const bool write = iter_ % kSweepWritePeriod == kSweepWritePeriod - 1;
      return MemOp::touch(graph_region_, 0, config_.graph_pages,
                          config_.graph_pages, AccessPattern::kSequential,
                          write, config_.iter_touch_compute);
    }

    case Phase::kIterScatter:
      // Rank scatter: power-law writes to vertex state, two updates per
      // vertex page on average.
      phase_ = Phase::kIterDone;
      return MemOp::touch(vertex_region_, 0, config_.vertex_pages,
                          2 * config_.vertex_pages, AccessPattern::kZipf,
                          /*write=*/true, config_.iter_touch_compute,
                          config_.zipf_s);

    case Phase::kIterDone:
      ++iter_;
      phase_ = iter_ < config_.iterations ? Phase::kIterSweep : Phase::kRunDone;
      return MemOp::marker(strfmt("iter:%zu:done", iter_));

    case Phase::kRunDone:
      freed_graph_ = false;
      phase_ = Phase::kFreeRegions;
      return MemOp::marker(strfmt("run:%zu:done", run_ + 1));

    case Phase::kFreeRegions: {
      if (!freed_graph_) {
        freed_graph_ = true;
        return MemOp::free_region(graph_region_);
      }
      const RegionId region = vertex_region_;
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
