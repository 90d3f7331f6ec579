// Conservative windowed discrete-event engine.
//
// A multi-node run shards the simulation per VirtualNode: every shard owns
// a private Simulator (event queue, clock, RNG streams) and the engine
// advances all shards together in bounded time windows, one shard after
// another on the calling thread. The windows are not there for host
// parallelism — a window holds a handful of events, so handing shards to
// worker threads cost more than it saved (DESIGN §11) — but to give the
// rack one fixed order for everything that crosses shards. If every
// cross-shard interaction crosses a channel whose minimum latency is L (the
// ~5 ms rack hop), then an event executing at time t can only affect a peer
// shard at t' >= t + L. A window [m, m + W) with W <= L — m being the
// globally earliest pending event — therefore cannot receive any message
// generated inside itself, so no shard ever observes another shard's state
// at a different simulated time. The window barrier is the one point where
// cross-shard state may be read and written: the barrier hook settles
// lending credit there (LendingBroker::sync_window).
//
// Cross-shard sends are *staged*, not delivered: during a window a shard
// appends timestamped closures to its own per-destination outbox; at the
// barrier the engine drains every outbox and schedules the closures into
// the destination simulators in (deliver_time, source shard, source
// sequence) order. That total order — never the order in which shards
// happened to run — decides destination-side sequence numbers.
//
// Zero lookahead is rejected outright (a zero-delay hop gives no safe
// window), and the engine skips idle stretches by starting each window at
// the globally earliest pending event instead of marching in fixed W steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace smartmem::sim {

class EngineProfiler;

class ParallelEngine {
 public:
  struct Config {
    /// Minimum cross-shard latency: no message staged inside a window may be
    /// due before the window ends. Must be > 0 (throws otherwise).
    SimTime lookahead = 0;
  };

  explicit ParallelEngine(Config config);

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Registers `sim` as the next shard; returns its shard id. All shards
  /// must be added before run(). The simulator must outlive the engine.
  std::size_t add_shard(Simulator* sim);
  std::size_t shard_count() const { return shards_.size(); }

  /// Stages a cross-shard delivery: `action` runs on shard `dst` at absolute
  /// time `when`. Must be called from shard `src`'s events or between
  /// windows; `when` must respect the lookahead discipline (due no earlier
  /// than the end of the current window). The barrier checks it and throws
  /// std::logic_error on a violation.
  void post(std::size_t src, std::size_t dst, SimTime when,
            std::function<void()> action);

  /// Runs once at every window barrier with the window's end time.
  /// Cross-shard reads/writes are safe here; keep it cheap — it runs once
  /// per window whatever the window did.
  void set_barrier_hook(std::function<void(SimTime)> hook);

  /// Attaches a self-profiler (per-shard busy/injection and per-window
  /// idle-skip accounting — see sim/profiler.hpp). nullptr detaches;
  /// without one every hot-path hook is a single pointer test. The
  /// profiler observes wall clocks and counts only — it never alters the
  /// event schedule, so profiled runs stay byte-identical. Attach before
  /// run(); the profiler must outlive the engine's last run() call.
  void set_profiler(EngineProfiler* profiler);

  /// Advances every shard in conservative windows until `stop_when` returns
  /// true (evaluated at each barrier), no events remain anywhere, or the
  /// next window would start past `deadline`. Returns the global time (the
  /// last window end, or `deadline` when it cut the run short).
  SimTime run(const std::function<bool()>& stop_when, SimTime deadline);

  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t messages_posted() const { return posted_; }
  SimTime lookahead() const { return config_.lookahead; }

 private:
  struct Staged {
    SimTime when;
    std::uint64_t seq;  // per-source monotonic: ties break by posting order
    std::function<void()> action;
  };
  struct Shard {
    Simulator* sim;
    // outbox[dst]: staged deliveries, written only by this shard's events
    // during a window, drained only at the barrier.
    std::vector<std::vector<Staged>> outbox;
    // Destinations whose outbox this shard made non-empty since the last
    // drain, so the barrier walks only the outboxes a window wrote.
    std::vector<std::size_t> posted_to;
    std::uint64_t next_post_seq = 0;
  };

  void drain_outboxes(SimTime end);

  /// Advances shard `i` to `end`, timing it into the profiler when one is
  /// attached.
  void run_shard_window(std::size_t i, SimTime end);

  Config config_;
  std::vector<Shard> shards_;
  std::function<void(SimTime)> hook_;
  EngineProfiler* profiler_ = nullptr;
  std::uint64_t windows_ = 0;
  std::uint64_t posted_ = 0;
};

}  // namespace smartmem::sim
