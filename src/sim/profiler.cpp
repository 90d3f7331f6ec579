#include "sim/profiler.hpp"

#include <utility>

#include "common/strfmt.hpp"
#include "obs/registry.hpp"

namespace smartmem::sim {

void EngineProfiler::resize(std::size_t shard_count) {
  if (shards_.size() >= shard_count) return;
  shards_.resize(shard_count);
  window_.resize(shard_count);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].label.empty()) shards_[i].label = strfmt("s%zu", i);
  }
}

void EngineProfiler::set_shard_label(std::size_t shard, std::string label) {
  if (shard >= shards_.size()) resize(shard + 1);
  shards_[shard].label = std::move(label);
}

void EngineProfiler::begin_window(SimTime start, SimTime prev_end) {
  if (start > prev_end) idle_skip_ += start - prev_end;
  for (WindowSlot& slot : window_) slot = WindowSlot{};
}

void EngineProfiler::record_shard_window(std::size_t shard,
                                         std::uint64_t busy_ns,
                                         std::uint64_t events) {
  WindowSlot& slot = window_[shard];
  slot.busy_ns = busy_ns;
  slot.events = events;
}

void EngineProfiler::record_injections(std::size_t src, std::size_t dst,
                                       std::uint64_t count) {
  shards_[src].injections_out += count;
  shards_[dst].injections_in += count;
}

void EngineProfiler::end_window() {
  ++windows_;
  // The window's critical path is its busiest shard. Ties break toward the
  // lowest shard id so the attribution is a pure function of the
  // measurements.
  std::uint64_t critical_ns = 0;
  std::size_t critical_shard = 0;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    if (window_[i].busy_ns > critical_ns) {
      critical_ns = window_[i].busy_ns;
      critical_shard = i;
    }
  }
  window_wall_ns_ += critical_ns;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    ShardProfile& s = shards_[i];
    s.busy_ns += window_[i].busy_ns;
    s.events += window_[i].events;
  }
  if (!window_.empty()) ++shards_[critical_shard].critical_windows;
}

EngineProfiler::Report EngineProfiler::report() const {
  Report r;
  r.windows = windows_;
  r.window_wall_ns = window_wall_ns_;
  r.drain_ns = drain_ns_;
  r.hook_ns = hook_ns_;
  r.idle_skip = idle_skip_;
  r.shards.reserve(shards_.size());
  for (const ShardProfile& s : shards_) r.shards.push_back(&s);
  // Bottleneck: the shard critical most often; total busy breaks ties (a
  // shard can be narrowly second every window yet dominate total time).
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    const ShardProfile& best = shards_[r.bottleneck];
    const ShardProfile& cand = shards_[i];
    if (cand.critical_windows > best.critical_windows ||
        (cand.critical_windows == best.critical_windows &&
         cand.busy_ns > best.busy_ns)) {
      r.bottleneck = i;
    }
  }
  return r;
}

void EngineProfiler::register_metrics(obs::Registry& reg) const {
  reg.add_gauge("engine.windows",
                [this] { return static_cast<double>(windows_); });
  reg.add_gauge("engine.idle_skip_s", [this] { return to_seconds(idle_skip_); });
  reg.add_gauge("engine.window_wall_ms", [this] {
    return static_cast<double>(window_wall_ns_) / 1e6;
  });
  reg.add_gauge("engine.drain_ms",
                [this] { return static_cast<double>(drain_ns_) / 1e6; });
  reg.add_gauge("engine.hook_ms",
                [this] { return static_cast<double>(hook_ns_) / 1e6; });
  for (const ShardProfile& s : shards_) {
    const std::string prefix = "engine." + s.label + ".";
    const ShardProfile* p = &s;
    reg.add_gauge(prefix + "busy_ms",
                  [p] { return static_cast<double>(p->busy_ns) / 1e6; });
    reg.add_gauge(prefix + "events",
                  [p] { return static_cast<double>(p->events); });
    reg.add_gauge(prefix + "injections_out",
                  [p] { return static_cast<double>(p->injections_out); });
    reg.add_gauge(prefix + "injections_in",
                  [p] { return static_cast<double>(p->injections_in); });
    reg.add_gauge(prefix + "critical_windows",
                  [p] { return static_cast<double>(p->critical_windows); });
  }
}

}  // namespace smartmem::sim
