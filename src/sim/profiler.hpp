// Self-profiler for the windowed engine.
//
// The ROADMAP asks which shard holds the barrier at fleet scale. Answering
// that needs per-shard, per-window accounting the engine itself cannot see
// from its aggregate counters: how long each shard computes inside a window
// (busy), how much cross-shard traffic it stages (outbox injections), how
// much simulated time the windowing skips entirely (idle skip), and how
// long the serial barrier work takes (drain, hook).
//
// The profiler reads wall clocks and counts events; it never touches the
// event schedule, so a profiled run is byte-identical to an unprofiled one
// by construction (CI checks the outcome columns' md5 anyway). When no
// profiler is attached the engine's hot paths cost one null-pointer test.
//
// Attribution: each window's critical path is its busiest shard (wall
// clock; ties break toward the lowest shard id). Summed over the run that
// is the window wall time: what the windows would cost if every shard ran
// on a core of its own, a floor for any parallel schedule of the same
// windows. The shard that is critical most often — total busy time breaks
// ties — is the bottleneck the report names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace smartmem::obs {
class Registry;
}  // namespace smartmem::obs

namespace smartmem::sim {

class EngineProfiler {
 public:
  struct ShardProfile {
    std::string label;              // "n0".."nK", "rack" (cluster wiring)
    std::uint64_t busy_ns = 0;      // wall clock inside run_window
    std::uint64_t events = 0;       // events executed inside windows
    std::uint64_t injections_out = 0;   // outbox entries staged by this shard
    std::uint64_t injections_in = 0;    // entries delivered into this shard
    std::uint64_t critical_windows = 0;  // windows this shard was slowest
  };

  struct Report {
    std::uint64_t windows = 0;
    std::uint64_t window_wall_ns = 0;  // sum of per-window critical paths
    std::uint64_t drain_ns = 0;        // barrier: outbox drains
    std::uint64_t hook_ns = 0;         // barrier: the barrier hook
    SimTime idle_skip = 0;             // sim time jumped over between windows
    std::vector<const ShardProfile*> shards;
    /// Index into `shards` of the attribution winner (0 when there are no
    /// shards; bottleneck_shard() is the null-safe view).
    std::size_t bottleneck = 0;
    const ShardProfile* bottleneck_shard() const {
      return shards.empty() ? nullptr : shards[bottleneck];
    }
  };

  /// Sizes the per-shard state; the engine calls this on its first profiled
  /// window, labels may be set before or after (missing labels render as
  /// "s<i>"). Only ever grows. Callers registering metrics must reach the
  /// final shard count first — register_metrics hands the Registry pointers
  /// into the per-shard storage.
  void resize(std::size_t shard_count);
  void set_shard_label(std::size_t shard, std::string label);
  std::size_t shard_count() const { return shards_.size(); }

  // ---- Engine-facing hooks (hot path) --------------------------------------

  /// Before the window executes: `start` is the window's first event time,
  /// `prev_end` the previous window's end (0 before the first).
  void begin_window(SimTime start, SimTime prev_end);

  /// After `shard` advanced through the current window.
  void record_shard_window(std::size_t shard, std::uint64_t busy_ns,
                           std::uint64_t events);

  /// At the barrier drain: `count` staged deliveries src->dst.
  void record_injections(std::size_t src, std::size_t dst,
                         std::uint64_t count);

  void add_drain_ns(std::uint64_t ns) { drain_ns_ += ns; }
  void add_hook_ns(std::uint64_t ns) { hook_ns_ += ns; }

  /// After the barrier work: folds the window's slots into the per-shard
  /// aggregates and the critical path.
  void end_window();

  // ---- Results -------------------------------------------------------------

  std::uint64_t windows() const { return windows_; }
  SimTime idle_skip() const { return idle_skip_; }
  const ShardProfile& shard(std::size_t i) const { return shards_.at(i); }

  /// Aggregated view with the bottleneck attribution resolved. Stable for
  /// a finished run; callable mid-run for progress peeks.
  Report report() const;

  /// Exports per-shard busy/events/injections and engine totals as
  /// "engine."-prefixed gauges. Wall-clock derived — callers must keep
  /// these out of determinism-checked artifacts (same contract as the
  /// benches' stdout wall columns).
  void register_metrics(obs::Registry& reg) const;

 private:
  struct WindowSlot {
    std::uint64_t busy_ns = 0;
    std::uint64_t events = 0;
  };

  std::vector<ShardProfile> shards_;
  std::vector<WindowSlot> window_;  // per-shard, current window only
  std::uint64_t windows_ = 0;
  std::uint64_t window_wall_ns_ = 0;
  std::uint64_t drain_ns_ = 0;
  std::uint64_t hook_ns_ = 0;
  SimTime idle_skip_ = 0;
};

}  // namespace smartmem::sim
