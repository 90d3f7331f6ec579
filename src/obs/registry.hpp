// Central metrics registry (observability pillar 2).
//
// Subsystems register named counters and gauges as read callbacks (or raw
// pointers to their existing std::uint64_t counters / common/stats objects),
// and the owning node snapshots the whole registry once per sampling
// interval. Snapshots accumulate in memory and export as JSONL (one
// {"t_s":..., "metrics":{...}} object per line) or CSV, selected by the
// output path's extension.
//
// The registry never copies or owns subsystem state: a registered callback
// reads live component memory at snapshot time, so registration is wiring,
// not bookkeeping. All registration happens during node construction on one
// thread; snapshots run inside the (single-threaded) simulation loop.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace smartmem::obs {

class Registry {
 public:
  using ReadFn = std::function<double()>;

  /// Monotonically increasing value (events since start).
  void add_counter(std::string name, ReadFn read);
  void add_counter(std::string name, const std::uint64_t* value);

  /// Point-in-time value (may go up or down).
  void add_gauge(std::string name, ReadFn read);

  /// Expands to <name>.p50/.p95/.p99 quantile gauges plus <name>.count.
  void add_histogram(const std::string& name, const Histogram* hist);

  /// Expands to <name>.mean/.max gauges plus <name>.count.
  void add_running_stats(const std::string& name, const RunningStats* stats);

  std::size_t metric_count() const { return metrics_.size(); }

  /// Evaluates every metric and appends a row. Registration is closed after
  /// the first snapshot (the column set must stay fixed).
  void snapshot(SimTime now);

  struct Row {
    SimTime when = 0;
    std::vector<double> values;
  };
  const std::vector<Row>& rows() const { return rows_; }

  /// Latest snapshotted value of `name`; NaN when absent or no snapshot yet.
  double latest(const std::string& name) const;

  /// Writes all snapshots to `path`: CSV when the path ends in ".csv",
  /// JSONL otherwise. Returns false and sets *err on failure.
  bool export_to(const std::string& path, std::string* err) const;

 private:
  struct Metric {
    std::string name;
    bool counter = false;
    ReadFn read;
  };

  void add(std::string name, bool counter, ReadFn read);

  std::vector<Metric> metrics_;
  std::vector<Row> rows_;
  bool closed_ = false;
};

}  // namespace smartmem::obs
