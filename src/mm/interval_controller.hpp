// Adaptive sampling-interval controller.
//
// The paper fixes the stats VIRQ at 1 s (Section III-C); ablation_interval
// shows that cadence is wrong in both directions depending on failed-put
// velocity, and ablation_comms shows a congested uplink makes a fast cadence
// actively harmful (drop-oldest livelocks once ~2.5 samples are in flight).
// This controller closes both loops: it watches the failed-put velocity of
// each delivered sample plus the uplink's congestion counters and stretches
// or shrinks the sampling interval within [min, max] bounds —
//
//   * congestion (queue depth at/above a threshold, or fresh queue-full
//     drops/refusals since the last sample) always stretches: pushing
//     samples faster into a clogged channel only widens staleness;
//   * failed puts shrink: a VM is hitting its ceiling, so the control loop
//     tightens to react within fewer lost intervals;
//   * a configurable streak of quiet samples stretches: nothing is
//     happening, so the loop slows down and sheds control-plane traffic.
//
// Changes are rate-limited by a hysteresis window so the loop cannot
// oscillate faster than the fabric can deliver the updates. The controller
// is pure, deterministic state-machine logic (no simulator, no RNG): the
// fuzz harness drives it with millions of randomized traces and checks the
// bounds/convergence/hysteresis invariants directly.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace smartmem::mm {

struct IntervalControllerConfig {
  /// Master switch. Off (the default) keeps the paper's fixed cadence and
  /// the byte-identical control-message stream.
  bool enabled = false;

  /// Hard bounds on the interval. The controller never proposes a value
  /// outside [min_interval, max_interval].
  SimTime min_interval = kSecond / 4;
  SimTime max_interval = 4 * kSecond;

  /// Failed puts in a sample at/above which the loop tightens.
  std::uint64_t hot_failed_puts = 1;

  /// Consecutive quiet (no failed puts, no congestion) samples required
  /// before the loop stretches.
  std::uint32_t quiet_samples_to_stretch = 4;

  /// Uncongested samples required after a congested one before failed puts
  /// may shrink again. Congestion means the uplink cannot absorb a faster
  /// cadence; shrinking straight after the recovery stretch would reopen
  /// the livelock the stretch just defused. Also the number of floor-blocked
  /// hot samples after which the shrink floor is probed one step down (see
  /// the class comment).
  std::uint32_t congestion_cooldown_samples = 4;

  /// Multiplicative step sizes. shrink < 1 < grow.
  double grow_factor = 2.0;
  double shrink_factor = 0.5;

  /// Minimum simulated time between two applied changes. Proposals landing
  /// inside the window are deferred (the triggering condition must still
  /// hold at the next sample).
  SimTime hysteresis = 2 * kSecond;

  /// Uplink in-flight depth at/above which the channel counts as congested
  /// (matched to the capacity-2 bounded queues of ablation_comms).
  std::size_t congestion_depth = 2;

  /// Sample age (in intervals-at-capture) at/above which the sample itself
  /// counts as congestion evidence: a delivery that old means the cadence
  /// outpaces the fabric even when no queue counter moved. Matches the
  /// SmartPolicyConfig stale_threshold default so the cadence stretches at
  /// exactly the point decisions start being skipped/widened.
  double stale_age_intervals = 1.5;

  /// Scales every time constant by `f` (scenario scaling).
  void scale_times(double f);
};

/// One observation per delivered stats sample.
struct IntervalSignal {
  /// Failed puts summed over the sample's VMs (puts_total - puts_succ).
  std::uint64_t failed_puts = 0;
  /// Age of this sample in sampling intervals at capture time (the MM's
  /// staleness measure, uplink latency included).
  double sample_age_intervals = 0.0;
  /// Uplink queue depth at observation time.
  std::size_t uplink_in_flight = 0;
  /// Cumulative uplink queue-full drops; the controller diffs consecutive
  /// values itself.
  std::uint64_t uplink_queue_events = 0;
};

class IntervalController {
 public:
  IntervalController(IntervalControllerConfig config, SimTime initial);

  /// Feeds one sample's signals; returns the new interval when the
  /// controller decides to change it (already clamped to [min, max]),
  /// std::nullopt otherwise.
  std::optional<SimTime> on_sample(SimTime now, const IntervalSignal& signal);

  SimTime current() const { return current_; }
  std::uint64_t changes() const { return changes_; }
  std::uint64_t stretches() const { return stretches_; }
  std::uint64_t shrinks() const { return shrinks_; }
  const IntervalControllerConfig& config() const { return config_; }

 private:
  std::optional<SimTime> apply(SimTime now, SimTime proposed);

  IntervalControllerConfig config_;
  SimTime current_;
  SimTime last_change_ = kNever;  // no change applied yet
  std::uint32_t quiet_streak_ = 0;
  // Saturating count of uncongested samples since the last congested one;
  // starts saturated so a trace that never congests can shrink at once.
  std::uint32_t samples_since_congestion_ = UINT32_MAX;
  // ssthresh-style memory of congestion: every congested sample raises the
  // floor to the interval that relieved it, and hot shrinks clamp to the
  // floor instead of diving back into the livelock. After
  // congestion_cooldown_samples consecutive floor-blocked hot samples the
  // floor decays one shrink step (a slow probe: if the fabric really did
  // recover, the cadence is allowed back down; if not, the next congested
  // sample restores the floor).
  SimTime shrink_floor_ = 0;
  std::uint32_t floor_probe_streak_ = 0;
  std::uint64_t last_queue_events_ = 0;
  bool seen_queue_events_ = false;
  std::uint64_t changes_ = 0;
  std::uint64_t stretches_ = 0;
  std::uint64_t shrinks_ = 0;

  static constexpr SimTime kNever = -1;
};

}  // namespace smartmem::mm
