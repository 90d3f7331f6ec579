#include "mm/manager.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace smartmem::mm {

namespace {
constexpr auto kLogComp = log::Component::kMm;
}

MemoryManager::MemoryManager(PolicyPtr policy, PageCount total_tmem,
                             ManagerConfig config)
    : policy_(std::move(policy)),
      total_tmem_(total_tmem),
      config_(config),
      last_stats_interval_(config.sample_interval),
      targets_encoder_(config.delta) {
  if (!policy_) {
    throw std::invalid_argument("MemoryManager: null policy");
  }
}

void MemoryManager::attach_obs(obs::TraceRecorder* trace,
                               obs::AuditLog* audit) {
  trace_ = trace;
  audit_ = audit;
  if (trace_ != nullptr) mm_track_ = trace_->register_track("mm", "policy");
}

void MemoryManager::register_metrics(obs::Registry& reg) const {
  reg.add_counter("mm.samples_seen", &samples_seen_);
  reg.add_counter("mm.targets_sent", &targets_sent_);
  reg.add_counter("mm.sends_suppressed", &sends_suppressed_);
  reg.add_counter("mm.stale_samples_dropped", [this] {
    return static_cast<double>(stale_samples_dropped());
  });
  reg.add_gauge("mm.last_sample_seq",
                [this] { return static_cast<double>(last_sample_seq()); });
  // Derived staleness gauge: age *now* of the newest delivered sample, in
  // sampling intervals — normalized by the interval that sample carries.
  // NaN until the first delivery or without a clock.
  reg.add_gauge("mm.stats_staleness_intervals", [this] {
    if (!clock_ || last_stats_when_ < 0 || last_stats_interval_ <= 0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return static_cast<double>(clock_() - last_stats_when_) /
           static_cast<double>(last_stats_interval_);
  });
  // Decisions widened on stale samples (flat with the stale mode off).
  reg.add_counter("mm.stale_decisions", [this] {
    return static_cast<double>(policy_->stale_decisions());
  });
  // Fleet-scale control plane (DESIGN §12): delta decode/encode health and
  // the decide-time probe.
  metrics_attached_ = true;
  reg.add_histogram("mm.stats_age_intervals", &stats_age_hist_);
  reg.add_counter("mm.stats_chain_breaks",
                  [this] { return static_cast<double>(stats_chain_breaks()); });
  reg.add_counter("mm.targets_full_sends",
                  [this] { return static_cast<double>(targets_full_sends()); });
  reg.add_counter("mm.decide_ns_total", &decide_ns_total_);
}

void MemoryManager::fill_audit_verdicts(obs::DecisionRecord& record,
                                        const hyper::MemStats& stats,
                                        const hyper::MmOut& out) {
  if (!scratch_.vms.empty()) {
    record.renormalized = scratch_.renormalized;
    record.renorm_factor = scratch_.renorm_factor;
    record.vms = scratch_.vms;
    return;
  }
  // Policy did not fill the scratch: synthesize a before/after diff so the
  // record still names a verdict per VM.
  record.vms.reserve(out.size());
  for (const hyper::MmTarget& t : out) {
    obs::VmVerdict v;
    v.vm = t.vm_id;
    v.target_after = t.mm_target;
    v.condition = "policy:diff";
    for (const hyper::VmMemStats& s : stats.vm) {
      if (s.vm_id != t.vm_id) continue;
      v.target_before = s.mm_target;
      v.failed_puts = s.puts_total - s.puts_succ;
      v.tmem_used = s.tmem_used;
      if (s.mm_target != kUnlimitedTarget) {
        v.slack_pages = static_cast<double>(s.mm_target) -
                        static_cast<double>(s.tmem_used);
      }
      break;
    }
    if (v.target_before == kUnlimitedTarget) {
      v.verdict = t.mm_target == kUnlimitedTarget ? "hold" : "limit";
    } else if (t.mm_target > v.target_before) {
      v.verdict = "grow";
    } else if (t.mm_target < v.target_before) {
      v.verdict = "shrink";
    } else {
      v.verdict = "hold";
    }
    record.vms.push_back(v);
  }
}

void MemoryManager::on_stats(const hyper::MemStats& stats) {
  if (!stats_view_.apply(stats)) {
    // A stale or duplicated seq, or a delta on a broken chain (recovery is
    // the TKM's next full snapshot). The view counts both and advances its
    // applied seq only when a message applies, so a dropped delta never
    // blocks its retransmitted predecessors.
    log::debug(kLogComp, "dropped memstats seq %llu (base %llu, last %llu)",
               static_cast<unsigned long long>(stats.seq),
               static_cast<unsigned long long>(stats.base_seq),
               static_cast<unsigned long long>(last_sample_seq()));
    return;
  }
  ++samples_seen_;
  process_sample(stats_view_.view());
}

void MemoryManager::process_sample(const hyper::MemStats& stats) {
  const SimTime now = clock_ ? clock_() : stats.when;
  last_stats_when_ = stats.when;
  // Normalize staleness by the interval this sample carries; samples that
  // carry none fall back to the configured value.
  last_stats_interval_ =
      stats.interval > 0 ? stats.interval : config_.sample_interval;
  last_stats_age_ =
      last_stats_interval_ > 0
          ? static_cast<double>(now - stats.when) /
                static_cast<double>(last_stats_interval_)
          : 0.0;
  if (metrics_attached_) stats_age_hist_.add(last_stats_age_);

  PolicyContext ctx;
  // A rack-managed hypervisor reports its quota-capped capacity in each
  // sample; the per-VM policy must renormalize (Eq. 2) under *that*, not
  // the static physical size. An unmanaged hypervisor reports exactly the
  // physical size, so this is identical on the single-node path; the
  // fallback covers synthetic MemStats from tests that leave the field 0.
  ctx.total_tmem = stats.total_tmem != 0 ? stats.total_tmem : total_tmem_;
  ctx.stats_age_intervals = last_stats_age_;
  if (audit_ != nullptr) {
    scratch_.clear();
    ctx.audit = &scratch_;
  }

  const auto decide_start = std::chrono::steady_clock::now();
  hyper::MmOut out = policy_->compute(stats, ctx);
  decide_ns_total_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - decide_start)
          .count());
  ++decide_count_;

  if (trace_ != nullptr && trace_->enabled(obs::kCatMm)) {
    // Span from sample capture to decision: its length is the staleness the
    // decision acted under (uplink latency included).
    trace_->span(obs::kCatMm, mm_track_, "policy_decide", stats.when,
                 now - stats.when,
                 {{"seq", static_cast<double>(stats.seq)},
                  {"targets", static_cast<double>(out.size())},
                  {"age_intervals", last_stats_age_}});
  }

  obs::DecisionRecord record;
  const bool auditing = audit_ != nullptr;
  if (auditing) {
    record.stats_seq = stats.seq;
    record.stats_when = stats.when;
    record.decided_at = now;
    record.stats_age_intervals = last_stats_age_;
    record.policy = policy_->name();
    fill_audit_verdicts(record, stats, out);
  }

  if (out.empty()) {
    if (auditing) {
      record.empty_output = true;
      audit_->append(std::move(record));
    }
    return;
  }

  // send_to_hypervisor(): skip transmission when nothing changed.
  if (config_.suppress_unchanged && last_sent_ && *last_sent_ == out) {
    ++sends_suppressed_;
    if (auditing) {
      record.suppressed = true;
      audit_->append(std::move(record));
    }
    return;
  }
  last_sent_ = out;
  ++targets_sent_;
  if (auditing) {
    record.sent = true;
    record.send_seq = next_send_seq_ + 1;
    audit_->append(std::move(record));
  }
  if (sender_) {
    sender_(targets_encoder_.encode(++next_send_seq_, out));
  } else {
    log::warn(kLogComp, "no sender attached; targets dropped");
  }
}

}  // namespace smartmem::mm
