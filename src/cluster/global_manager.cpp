#include "cluster/global_manager.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "common/strfmt.hpp"

namespace smartmem::cluster {

namespace {
constexpr auto kLogComp = log::Component::kMm;
}

GlobalManager::GlobalManager(sim::Simulator& sim, GlobalPolicyPtr policy,
                             GlobalManagerConfig config)
    : sim_(sim), policy_(std::move(policy)), config_(config) {
  if (!policy_) {
    throw std::invalid_argument("GlobalManager: null policy");
  }
  if (config_.interval <= 0) {
    throw std::invalid_argument("GlobalManager: interval must be positive");
  }
}

void GlobalManager::on_node_stats(const NodeStats& stats) {
  if (stats.seq != 0) {
    std::uint64_t& last = last_seq_[stats.node];
    if (stats.seq <= last) {
      ++stale_rollups_dropped_;
      return;
    }
    last = stats.seq;
  }
  ++rollups_seen_;
  auto [it, inserted] = index_.try_emplace(stats.node, stats_vec_.size());
  if (inserted) {
    // First roll-up from this node: sorted insert keeps decide()'s view in
    // node-id order (the order the old map-rebuild produced).
    const auto pos = std::lower_bound(
        stats_vec_.begin(), stats_vec_.end(), stats.node,
        [](const NodeStats& s, NodeId id) { return s.node < id; });
    const std::size_t idx = static_cast<std::size_t>(pos - stats_vec_.begin());
    stats_vec_.insert(pos, stats);
    for (auto& [node, i] : index_) {
      if (node != stats.node && i >= idx) ++i;
    }
    it->second = idx;
    cluster_tmem_ += stats.phys_tmem;
    dirty_since_decide_ = true;
    return;
  }
  NodeStats& slot = stats_vec_[it->second];
  cluster_tmem_ += stats.phys_tmem - slot.phys_tmem;
  if (!same_payload(slot, stats)) dirty_since_decide_ = true;
  slot = stats;
}

void GlobalManager::start() {
  tick_ = sim_.schedule_periodic(config_.interval, [this] { decide(); });
}

void GlobalManager::stop() { tick_.cancel(); }

void GlobalManager::decide() {
  if (stats_vec_.empty()) return;

  if (metrics_attached_) {
    // Staleness the decision is about to act under, per node, in decision
    // intervals — fed on every round (clean fast path included) so the
    // exported distribution covers the whole run. Skipped entirely when no
    // registry ever asked for it.
    const double interval = static_cast<double>(config_.interval);
    for (const NodeStats& ns : stats_vec_) {
      rollup_age_hist_.add(static_cast<double>(sim_.now() - ns.when) /
                           interval);
    }
  }

  // Clean-decide fast path (DESIGN §12): no roll-up payload changed since
  // the previous round, the global policies are pure functions of the rack
  // view, and the previous output was transmitted — rerunning the policy
  // could only reproduce the vector suppression would then drop. Counters
  // advance exactly as the full path would have.
  if (audit_ == nullptr && !dirty_since_decide_ && last_sent_) {
    ++decisions_;
    ++clean_decides_;
    ++sends_suppressed_;
    if (trace_ != nullptr && trace_->enabled(obs::kCatCluster)) {
      trace_->instant(obs::kCatCluster, track_, "global_decide", sim_.now(),
                      {{"nodes", static_cast<double>(stats_vec_.size())},
                       {"quotas", static_cast<double>(last_sent_->size())}});
    }
    return;
  }
  dirty_since_decide_ = false;

  GlobalPolicyContext ctx;
  ctx.cluster_tmem = cluster_tmem_;
  const bool auditing = audit_ != nullptr;
  if (auditing) {
    scratch_.clear();
    ctx.audit = &scratch_;
  }

  std::vector<NodeQuota> out = policy_->compute(stats_vec_, ctx);
  ++decisions_;

  if (trace_ != nullptr && trace_->enabled(obs::kCatCluster)) {
    trace_->instant(obs::kCatCluster, track_, "global_decide", sim_.now(),
                    {{"nodes", static_cast<double>(stats_vec_.size())},
                     {"quotas", static_cast<double>(out.size())}});
  }

  obs::DecisionRecord record;
  if (auditing) {
    // Newest roll-up acted on; its age tells how stale the rack view was.
    record.stats_seq = stats_vec_.back().seq;
    record.stats_when = stats_vec_.back().when;
    record.decided_at = sim_.now();
    record.stats_age_intervals =
        static_cast<double>(sim_.now() - stats_vec_.back().when) /
        static_cast<double>(config_.interval);
    record.policy = policy_->name();
    record.scope = "cluster";
    record.renormalized = scratch_.renormalized;
    record.renorm_factor = scratch_.renorm_factor;
    record.vms = scratch_.vms;
  }

  if (out.empty()) {
    if (auditing) {
      record.empty_output = true;
      audit_->append(std::move(record));
    }
    return;
  }

  if (last_sent_ && *last_sent_ == out) {
    ++sends_suppressed_;
    if (auditing) {
      record.suppressed = true;
      audit_->append(std::move(record));
    }
    return;
  }
  last_sent_ = out;
  ++next_send_seq_;
  if (auditing) {
    record.sent = true;
    record.send_seq = next_send_seq_;
    audit_->append(std::move(record));
  }
  if (sender_) {
    // Quota-delta downlink (DESIGN §12): skip nodes whose quota matches the
    // last value sent to them. A NodeQuotaMsg is self-contained and
    // idempotent, so per-node seq gaps are harmless; the periodic full
    // fan-out bounds how long a lost grant can stay unrepaired.
    const bool full_round = config_.delta.full_due(quota_rounds_);
    ++quota_rounds_;
    for (const NodeQuota& q : out) {
      if (!full_round) {
        const auto it = last_quota_sent_.find(q.node);
        if (it != last_quota_sent_.end() && it->second == q.quota) {
          ++quota_sends_skipped_;
          continue;
        }
      }
      last_quota_sent_[q.node] = q.quota;
      ++quotas_sent_;
      sender_(q.node, NodeQuotaMsg{next_send_seq_, q.node, q.quota});
    }
  } else {
    log::warn(kLogComp, "GlobalManager: no sender attached; quotas dropped");
  }
}

void GlobalManager::attach_obs(obs::TraceRecorder* trace,
                               obs::AuditLog* audit) {
  trace_ = trace;
  audit_ = audit;
  if (trace_ != nullptr) track_ = trace_->register_track("cluster", "gm");
}

void GlobalManager::register_metrics(obs::Registry& reg,
                                     std::size_t node_count) const {
  metrics_attached_ = true;
  reg.add_counter("gm.rollups_seen", &rollups_seen_);
  reg.add_counter("gm.stale_rollups_dropped", &stale_rollups_dropped_);
  reg.add_counter("gm.decisions", &decisions_);
  reg.add_counter("gm.quotas_sent", &quotas_sent_);
  reg.add_counter("gm.sends_suppressed", &sends_suppressed_);
  reg.add_counter("gm.clean_decides", &clean_decides_);
  reg.add_counter("gm.quota_sends_skipped", &quota_sends_skipped_);
  reg.add_gauge("gm.nodes_seen",
                [this] { return static_cast<double>(stats_vec_.size()); });
  reg.add_gauge("gm.decision_interval_s",
                [this] { return to_seconds(config_.interval); });
  reg.add_histogram("gm.rollup_age_intervals", &rollup_age_hist_);
  for (std::size_t i = 0; i < node_count; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    reg.add_gauge(strfmt("gm.n%zu.rollup_age_intervals", i), [this, id] {
      const auto it = index_.find(id);
      if (it == index_.end()) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return static_cast<double>(sim_.now() - stats_vec_[it->second].when) /
             static_cast<double>(config_.interval);
    });
    reg.add_gauge(strfmt("gm.n%zu.rollup_seq", i), [this, id] {
      const auto it = index_.find(id);
      if (it == index_.end()) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return static_cast<double>(stats_vec_[it->second].seq);
    });
  }
}

}  // namespace smartmem::cluster
