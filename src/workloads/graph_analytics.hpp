// Synthetic stand-in for CloudSuite's graph-analytics benchmark (PageRank
// over the soc-twitter-follows network — [16], [18]-[20]).
//
// Memory behaviour reproduced (cf. Section V-D: "The graph-analytics
// benchmark starts by making use of a large amount of tmem"):
//   1. edge-list load from disk (file reads);
//   2. an aggressive build phase that allocates the in-memory graph (CSR
//      arrays, far larger than usable RAM for the 512 MiB VMs) and writes it
//      sequentially with little compute per page — this is the fast ramp
//      that grabs tmem early;
//   3. ranking iterations: sequential sweeps over the edge arrays plus
//      power-law-skewed scatter writes to the vertex state (high-degree
//      vertices are hit constantly).
//
// Markers: "run:<k>:start", "build:done", "iter:<i>:done", "run:<k>:done".
#pragma once

#include "workloads/workload.hpp"

namespace smartmem::workloads {

struct GraphAnalyticsConfig {
  std::uint64_t file_id = 20;
  PageCount edge_file_pages = 0;  // dataset on the virtual disk
  PageCount graph_pages = 0;      // in-memory edge arrays (the big footprint)
  PageCount vertex_pages = 0;     // per-vertex rank/state arrays
  std::size_t iterations = 6;
  std::size_t runs = 1;
  SimTime sleep_between_runs = 0;
  /// Build phase writes pages with little compute: the fast tmem ramp.
  SimTime build_touch_compute = 200;  // 0.2 us
  SimTime iter_touch_compute = 1 * kMicrosecond;
  double zipf_s = 0.9;  // twitter-follows degree skew
};

class GraphAnalytics final : public Workload {
 public:
  explicit GraphAnalytics(GraphAnalyticsConfig config);

  const char* name() const override { return "graph-analytics"; }
  std::optional<MemOp> next() override;

  const GraphAnalyticsConfig& config() const { return config_; }

 private:
  enum class Phase : std::uint8_t {
    kRegisterFile,
    kRunStart,
    kLoadEdges,
    kAllocGraph,
    kBuildGraph,
    kAllocVertices,
    kInitVertices,
    kBuildDone,
    kIterSweep,
    kIterScatter,
    kIterDone,
    kRunDone,
    kFreeRegions,
    kSleep,
    kFinished,
  };

  GraphAnalyticsConfig config_;
  Phase phase_ = Phase::kRegisterFile;
  std::size_t run_ = 0;
  std::size_t iter_ = 0;
  RegionId graph_region_ = 0;
  RegionId vertex_region_ = 0;
  RegionId next_region_ = 0;
  bool freed_graph_ = false;
};

}  // namespace smartmem::workloads
