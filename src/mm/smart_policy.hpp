// Smart Allocation (smart-alloc) — Algorithm 4 with Equations 1 and 2.
#pragma once

#include "mm/policy.hpp"

namespace smartmem::mm {

/// What smart-alloc does when the sample it is acting on is older than the
/// staleness threshold (channel-congested uplink, queued deliveries).
enum class StaleMode : std::uint8_t {
  /// Paper behaviour: act on every sample as if it were fresh.
  kOff,
  /// Act, but widen the increment P proportionally to the sample's age:
  /// the stale sample understates how far demand has moved, so each grant
  /// covers the intervals the decision is blind to.
  kWiden,
};

const char* to_string(StaleMode m);
bool parse_stale_mode(const std::string& text, StaleMode& out);

struct SmartPolicyConfig {
  /// The paper's P parameter: targets grow/shrink by P percent of the total
  /// local tmem / of the current target. Evaluated values: 0.25-6 %.
  double p_percent = 0.75;

  /// "if the policy detects that a VM is using less pages than its target
  ///  plus a threshold value" — the slack (target - used) a VM may keep
  /// before its target shrinks. The paper does not give a number; the
  /// default ties it to one increment (P% of total tmem), so a VM never
  /// loses its headroom faster than it can win it back. 0 selects the
  /// default; the threshold ablation bench sweeps explicit values.
  PageCount threshold_pages = 0;

  /// Staleness handling (kOff = the paper's act-on-everything).
  StaleMode stale_mode = StaleMode::kOff;

  /// A sample older than this many sampling intervals counts as stale.
  /// The uplink alone contributes ~1 interval in the paper's geometry, so
  /// the default only fires once deliveries start queueing behind each
  /// other.
  double stale_threshold_intervals = 1.5;

  /// kWiden: cap on the widened increment, as a multiple of P.
  double stale_widen_max = 4.0;
};

/// Grows the target of every VM that failed puts in the last interval by
/// P% of total tmem; shrinks idle VMs' targets by P%; and renormalizes so
/// the sum of targets never exceeds the node's tmem (Eq. 2), which also
/// guarantees all capacity is assigned once demand exists (Eq. 1).
class SmartPolicy final : public Policy {
 public:
  explicit SmartPolicy(SmartPolicyConfig config);

  std::string name() const override;

  hyper::MmOut compute(const hyper::MemStats& stats,
                       const PolicyContext& ctx) override;

  const SmartPolicyConfig& config() const { return config_; }

  /// Effective threshold for a node with `total_tmem` pages.
  PageCount effective_threshold(PageCount total_tmem) const;

  /// Decisions widened because the sample was stale.
  std::uint64_t stale_decisions() const override { return stale_decisions_; }

  /// The widening multiplier applied to P for a sample of `age` intervals:
  /// 1 below the threshold, then growing linearly with the age overshoot,
  /// capped at stale_widen_max. Exposed for the property tests.
  double widen_factor(double age_intervals) const;

 private:
  SmartPolicyConfig config_;
  std::uint64_t stale_decisions_ = 0;
};

}  // namespace smartmem::mm
