#include "mm/smart_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/strfmt.hpp"

namespace smartmem::mm {

const char* to_string(StaleMode m) {
  switch (m) {
    case StaleMode::kOff: return "off";
    case StaleMode::kWiden: return "widen";
  }
  return "?";
}

bool parse_stale_mode(const std::string& text, StaleMode& out) {
  if (text == "off") {
    out = StaleMode::kOff;
  } else if (text == "widen") {
    out = StaleMode::kWiden;
  } else {
    return false;
  }
  return true;
}

SmartPolicy::SmartPolicy(SmartPolicyConfig config) : config_(config) {
  if (!(config_.p_percent > 0.0 && config_.p_percent <= 100.0)) {
    throw std::invalid_argument("SmartPolicy: P must be in (0, 100]");
  }
  if (config_.stale_threshold_intervals <= 0.0) {
    throw std::invalid_argument(
        "SmartPolicy: stale threshold must be positive");
  }
}

std::string SmartPolicy::name() const {
  if (config_.stale_mode == StaleMode::kOff) {
    return strfmt("smart-alloc(P=%.2f%%)", config_.p_percent);
  }
  return strfmt("smart-alloc(P=%.2f%%,stale=%s@%.2g)", config_.p_percent,
                to_string(config_.stale_mode),
                config_.stale_threshold_intervals);
}

PageCount SmartPolicy::effective_threshold(PageCount total_tmem) const {
  if (config_.threshold_pages != 0) return config_.threshold_pages;
  return static_cast<PageCount>(config_.p_percent / 100.0 *
                                static_cast<double>(total_tmem));
}

double SmartPolicy::widen_factor(double age_intervals) const {
  if (age_intervals <= config_.stale_threshold_intervals) return 1.0;
  // One extra unit of P per interval of blindness beyond the threshold,
  // capped so a pathological age cannot grant the whole node in one step.
  return std::min(1.0 + (age_intervals - config_.stale_threshold_intervals),
                  kStaleWidenMax);
}

hyper::MmOut SmartPolicy::compute(const hyper::MemStats& stats,
                                  const PolicyContext& ctx) {
  const auto local_tmem = static_cast<double>(ctx.total_tmem);  // line 2
  const PageCount threshold = effective_threshold(ctx.total_tmem);
  obs::PolicyAuditScratch* audit = ctx.audit;

  const bool stale =
      config_.stale_mode != StaleMode::kOff &&
      ctx.stats_age_intervals > config_.stale_threshold_intervals;
  if (stale) ++stale_decisions_;

  // kWiden: the stale sample is blind to (age - threshold) intervals of
  // demand movement, so each grow grant covers them with a larger step.
  const double grow_p =
      stale ? std::min(config_.p_percent * widen_factor(ctx.stats_age_intervals),
                       100.0)
            : config_.p_percent;

  hyper::MmOut out;
  out.reserve(stats.vm.size());
  double sum_targets = 0.0;  // line 4
  if (audit != nullptr) audit->vms.reserve(stats.vm.size());

  for (const auto& vm : stats.vm) {  // lines 5-26
    // The hypervisor reports an unlimited target before any MM update has
    // landed (greedy default). Ground it to an equal share so the relative
    // arithmetic below is well-defined.
    double curr_tgt =
        vm.mm_target == kUnlimitedTarget
            ? local_tmem / static_cast<double>(stats.vm.size())
            : static_cast<double>(vm.mm_target);

    const std::uint64_t failed_puts = vm.puts_total - vm.puts_succ;  // line 8
    const double difference = curr_tgt - static_cast<double>(vm.tmem_used);
    const char* verdict = "hold";
    const char* condition = "alg4:slack<=threshold";
    double mm_target;
    if (failed_puts > 0) {
      // Lines 10-12: the VM hit its ceiling during the last interval; grant
      // it P% of the node's tmem more (widened when acting on stale data).
      const double incr = grow_p * local_tmem / 100.0;
      mm_target = curr_tgt + incr;
      verdict = "grow";
      condition = stale ? "alg4:stale-widen" : "alg4:failed_puts>0";
    } else {
      // Lines 14-21: shrink only when the VM leaves more slack than the
      // threshold, to avoid oscillation.
      if (difference > static_cast<double>(threshold)) {
        mm_target = (100.0 - config_.p_percent) * curr_tgt / 100.0;
        verdict = "shrink";
        condition = "alg4:slack>threshold";
      } else {
        mm_target = curr_tgt;
      }
    }
    out.push_back({vm.vm_id, static_cast<PageCount>(mm_target)});
    sum_targets += mm_target;  // line 25

    if (audit != nullptr) {
      obs::VmVerdict v;
      v.vm = vm.vm_id;
      v.verdict = verdict;
      v.condition = condition;
      v.target_before = static_cast<PageCount>(curr_tgt);
      v.target_after = static_cast<PageCount>(mm_target);
      v.failed_puts = failed_puts;
      v.tmem_used = vm.tmem_used;
      v.slack_pages = difference;
      audit->vms.push_back(v);
    }
  }

  // Lines 27-33 (Equation 2): proportional scale-down when over-allocated,
  // so that the sum of targets never exceeds the node's capacity and every
  // page stays assigned (Equation 1). The widened increments of kWiden pass
  // through the same renormalization, so the invariant survives staleness.
  if (sum_targets > local_tmem && sum_targets > 0.0) {
    const double factor = local_tmem / sum_targets;  // line 28
    for (std::size_t i = 0; i < out.size(); ++i) {
      auto& t = out[i];
      t.mm_target = static_cast<PageCount>(
          std::floor(static_cast<double>(t.mm_target) * factor));
      if (audit != nullptr) {
        audit->vms[i].target_after = t.mm_target;
        audit->vms[i].renormalized = true;
      }
    }
    if (audit != nullptr) {
      audit->renormalized = true;
      audit->renorm_factor = factor;
    }
  }
  return out;  // line 34 (send; the MM suppresses unchanged vectors)
}

}  // namespace smartmem::mm
