// Sim-time trace recorder (observability pillar 1).
//
// Records spans ("X" complete events), instants and counter samples against
// the *simulated* clock and exports them as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing. One track = one (process, thread) pair in
// the trace UI; subsystems register tracks up front ("tmem"/"VM1",
// "comm"/"uplink", ...) and then record fixed-size events into a bounded ring
// buffer — when the ring fills, the oldest events are dropped (and counted),
// so a long run keeps its most recent window.
//
// Hot-path contract: recording one event is a category bitmask test plus a
// struct store into the preallocated ring. Event names and argument keys are
// `const char*` and must outlive the recorder — use string literals, or
// intern() for dynamic labels (marker names). When tracing is disabled no
// TraceRecorder exists at all; instrumented code holds a null pointer and a
// single branch skips everything, allocating nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace smartmem::obs {

/// Event categories, runtime-selectable via TraceConfig::categories
/// (`--trace-cats tmem,hyper,comm,mm` on the benches).
enum Category : std::uint32_t {
  kCatTmem = 1u << 0,      // put/get/flush intervals, target rejections
  kCatHyper = 1u << 1,     // VIRQ sample ticks, slow reclaim, target applies
  kCatComm = 1u << 2,      // channel send/deliver/drop
  kCatMm = 1u << 3,        // policy invocations and decisions
  kCatGuest = 1u << 4,     // vCPU batches
  kCatWorkload = 1u << 5,  // workload phase markers
  kCatSim = 1u << 6,       // simulator-level events
  kCatCluster = 1u << 7,   // global quota decisions, borrow/lend traffic
  kCatAll = 0xffffffffu,
};

/// Parses a comma-separated category list ("tmem,hyper" or "all") into a
/// bitmask. Returns false (leaving `out` untouched) on an unknown name.
bool parse_categories(const std::string& text, std::uint32_t& out);

/// Name of a single category bit (for export; unknown bits -> "?").
const char* category_name(std::uint32_t bit);

struct TraceConfig {
  std::uint32_t categories = kCatAll;
  /// Ring capacity in events; the oldest events are dropped when full.
  std::size_t capacity = 1u << 17;
  /// Deterministic 1-in-N sampling for sampled_span() call sites (the hot
  /// guest-path span families): each track keeps its own event counter and
  /// records the spans whose counter is a multiple of N. Tracks are
  /// single-writer and their event order is part of the simulation's
  /// deterministic schedule, so the sampled *set* is identical for any
  /// thread count — not just the same size. 1 (or 0) keeps every span.
  std::uint64_t sample_every = 1;
};

/// One argument attached to an event. Keys are static strings; values are
/// doubles (counters stay exact up to 2^53).
struct TraceArg {
  const char* key;
  double value;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config);

  /// Registers a track; `process` groups tracks into one pid row in the UI
  /// ("tmem", "comm", ...), `thread` names the lane ("VM1", "uplink").
  /// Setup-time only (allocates).
  std::uint16_t register_track(const std::string& process,
                               const std::string& thread);

  bool enabled(std::uint32_t category) const {
    return (config_.categories & category) != 0;
  }

  /// Copies a dynamic label into recorder-owned storage and returns a
  /// pointer valid for the recorder's lifetime (deduplicated). Allocates on
  /// first sight of a label — use for workload markers, not per-event data.
  const char* intern(const std::string& label);

  /// Complete event: a span [ts, ts+dur] on `track`.
  void span(std::uint32_t category, std::uint16_t track, const char* name,
            SimTime ts, SimTime dur, std::initializer_list<TraceArg> args = {});

  /// span() behind the deterministic 1-in-N sampler (see
  /// TraceConfig::sample_every). Only the hot guest-path families call this;
  /// everything else records unconditionally. Spans suppressed here are
  /// counted in sampled_out(), not in dropped().
  void sampled_span(std::uint32_t category, std::uint16_t track,
                    const char* name, SimTime ts, SimTime dur,
                    std::initializer_list<TraceArg> args = {});

  /// Instant event at `ts`.
  void instant(std::uint32_t category, std::uint16_t track, const char* name,
               SimTime ts, std::initializer_list<TraceArg> args = {});

  /// Counter sample: args render as stacked counter series in the UI.
  void counter(std::uint32_t category, std::uint16_t track, const char* name,
               SimTime ts, std::initializer_list<TraceArg> args);

  std::size_t recorded() const { return events_recorded_; }
  std::size_t size() const { return size_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Spans suppressed by the 1-in-N sampler (0 with sampling off).
  std::uint64_t sampled_out() const { return sampled_out_; }
  std::size_t track_count() const { return tracks_.size(); }

  /// Appends every track and buffered event of `other` into this recorder
  /// (track ids remapped, names and argument keys re-interned so nothing
  /// dangles when `other` dies). Used by the sharded cluster: each shard
  /// records into a private ring all run long and the rings are merged once
  /// at export — the record hot path never shares state across shards.
  /// Events keep their timestamps; Chrome JSON does not require global
  /// order. Subject to this ring's capacity like any other push.
  void merge_from(const TraceRecorder& other);

  /// Serializes the ring as Chrome trace-event JSON ({"traceEvents": [...]},
  /// ts/dur in microseconds, with process/thread metadata).
  std::string to_json() const;

  /// Writes to_json() to `path`. On failure returns false and sets *err.
  bool export_json(const std::string& path, std::string* err) const;

 private:
  static constexpr std::size_t kMaxArgs = 3;

  struct Event {
    const char* name;
    std::uint32_t category;
    char phase;  // 'X' span, 'i' instant, 'C' counter
    std::uint16_t track;
    std::uint8_t nargs;
    SimTime ts;
    SimTime dur;
    TraceArg args[kMaxArgs];
  };

  struct Track {
    std::string process;
    std::string thread;
    std::uint32_t pid;  // assigned per unique process name
  };

  void push(std::uint32_t category, char phase, std::uint16_t track,
            const char* name, SimTime ts, SimTime dur,
            std::initializer_list<TraceArg> args);

  TraceConfig config_;
  // Capacity rounded up to a power of two, left uninitialised: only the
  // slots in [head_, head_ + size_) have been written, and only they are
  // read, so pages of the ring fault in as events land in them.
  std::unique_ptr<Event[]> ring_;
  std::size_t ring_mask_ = 0;  // capacity - 1: wrap is a mask, not a div
  std::size_t head_ = 0;  // index of the oldest event
  std::size_t size_ = 0;
  std::size_t events_recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::vector<Track> tracks_;
  /// Per-track sampled_span() counters (single writer per track).
  std::vector<std::uint64_t> sample_counts_;
  std::unordered_map<std::string, std::uint32_t> pids_;
  std::unordered_map<std::string, const char*> interned_;
  std::deque<std::string> interned_storage_;
};

}  // namespace smartmem::obs
