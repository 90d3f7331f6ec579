// The Memory Manager (MM) user-space process — Sections III-D and III-E.
//
// The MM runs in Xen's privileged domain. Once per sampling interval it
// receives a memstats sample from the TKM (netlink in the real system),
// runs the configured high-level policy on it and —
// only if the resulting target vector differs from the last one sent —
// forwards it back to the hypervisor through the TKM
// ("send_to_hypervisor ... If no changes are detected, then no transmission
//  takes place, avoiding unnecessary communication overhead").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "comm/delta.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "hyper/delta.hpp"
#include "hyper/memstats.hpp"
#include "mm/policy.hpp"
#include "obs/audit.hpp"

namespace smartmem::obs {
class Registry;
class TraceRecorder;
}

namespace smartmem::mm {

struct ManagerConfig {
  /// Suppress re-sending an unchanged target vector (paper behaviour).
  bool suppress_unchanged = true;
  /// The hypervisor's sampling interval. Used to normalize the
  /// stats-staleness readings of samples that do not carry their own
  /// capture interval (MemStats::interval == 0, i.e. hand-built samples).
  SimTime sample_interval = kSecond;

  /// Control-message framing (DESIGN §12): the uplink's MemStats always
  /// fold into a materialized view, and outgoing TargetsMsgs carry only the
  /// changed entries between full resyncs. Mirrored from CommConfig::delta
  /// by the node wiring so both endpoints of each hop agree. The default
  /// resync_every = 1 frames every message full (the paper's vectors).
  comm::DeltaConfig delta;
};

class MemoryManager {
 public:
  /// `sender` delivers a sequenced mm_out message towards the hypervisor
  /// (in the full stack this is Tkm::submit_targets, i.e. the downlink
  /// channel). The MM stamps a fresh monotonic seq on every transmission.
  using TargetSender = std::function<void(const hyper::TargetsMsg&)>;

  MemoryManager(PolicyPtr policy, PageCount total_tmem,
                ManagerConfig config = {});

  void set_sender(TargetSender sender) { sender_ = std::move(sender); }

  /// Entry point: one memstats sample arriving from the TKM. Sequenced
  /// samples (seq != 0) that are older than — or duplicates of — the newest
  /// sample already seen are discarded: a faulty uplink must not hand the
  /// policy a stale interval.
  void on_stats(const hyper::MemStats& stats);

  const Policy& policy() const { return *policy_; }
  Policy& policy() { return *policy_; }

  std::uint64_t samples_seen() const { return samples_seen_; }
  std::uint64_t targets_sent() const { return targets_sent_; }
  std::uint64_t sends_suppressed() const { return sends_suppressed_; }
  std::uint64_t stale_samples_dropped() const {
    return stats_view_.stale_drops();
  }
  std::uint64_t last_sample_seq() const {
    return stats_view_.last_applied_seq();
  }
  /// Last transmitted target vector.
  const std::optional<hyper::MmOut>& last_sent() const { return last_sent_; }

  // ---- Fleet-scale control plane (DESIGN §12) ------------------------------

  /// Uplink delta messages dropped on a broken chain inside the
  /// materialized view.
  std::uint64_t stats_chain_breaks() const {
    return stats_view_.chain_breaks();
  }
  /// Downlink target sends that carried a full snapshot (every send at the
  /// default resync_every = 1).
  std::uint64_t targets_full_sends() const {
    return targets_encoder_.full_sends();
  }
  /// Wall-clock nanoseconds spent inside policy decides, and their count —
  /// the mm_decide_ns probe. Never fed back into the simulation.
  std::uint64_t decide_ns_total() const { return decide_ns_total_; }
  std::uint64_t decide_count() const { return decide_count_; }

  // ---- Observability --------------------------------------------------------

  /// Installs a simulated-time source. Needed for staleness readings and
  /// the decision trace spans; without it stats_age_intervals stays 0.
  using Clock = std::function<SimTime()>;
  void set_clock(Clock clock) { clock_ = std::move(clock); }

  /// Attaches the trace recorder (policy invocations become spans on an
  /// "mm" track) and/or the decision audit log. nullptr disables either.
  void attach_obs(obs::TraceRecorder* trace, obs::AuditLog* audit);

  /// Registers MM counters plus the stats-staleness gauge into `reg`.
  void register_metrics(obs::Registry& reg) const;

  /// Staleness of the most recently delivered sample, measured at delivery
  /// time, in sampling intervals — normalized by the interval the sample
  /// carries (MemStats::interval).
  double last_stats_age_intervals() const { return last_stats_age_; }

 private:
  /// Fills `record` from the scratch the policy populated, or synthesizes
  /// generic before/after verdicts when the policy ignored the scratch.
  void fill_audit_verdicts(obs::DecisionRecord& record,
                           const hyper::MemStats& stats,
                           const hyper::MmOut& out);

  /// Everything after uplink decode: staleness, policy decide,
  /// audit, suppression and the downlink send.
  void process_sample(const hyper::MemStats& stats);

  PolicyPtr policy_;
  PageCount total_tmem_;
  ManagerConfig config_;
  TargetSender sender_;
  std::optional<hyper::MmOut> last_sent_;
  std::uint64_t samples_seen_ = 0;
  std::uint64_t targets_sent_ = 0;
  std::uint64_t sends_suppressed_ = 0;
  std::uint64_t next_send_seq_ = 0;
  Clock clock_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::AuditLog* audit_ = nullptr;
  std::uint16_t mm_track_ = 0;
  obs::PolicyAuditScratch scratch_;  // reused across decisions
  SimTime last_stats_when_ = -1;     // capture time of last delivered sample
  SimTime last_stats_interval_ = 0;  // interval that sample carries
  double last_stats_age_ = 0.0;
  /// Applied-sample age at delivery, in capture intervals — one entry per
  /// processed sample, so the exported distribution says how stale the
  /// decisions actually ran, not just the latest reading. Fed only while a
  /// registry is attached (process_sample is otherwise obs-free).
  Histogram stats_age_hist_{0.0, 4.0, 32};
  mutable bool metrics_attached_ = false;

  // ---- Fleet-scale control plane (DESIGN §12) ------------------------------
  // Uplink decode into the materialized sample, downlink framing of each
  // sent target vector.
  hyper::StatsDeltaView stats_view_;
  hyper::TargetsDeltaEncoder targets_encoder_;
  std::uint64_t decide_ns_total_ = 0;
  std::uint64_t decide_count_ = 0;
};

}  // namespace smartmem::mm
