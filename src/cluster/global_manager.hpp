// Rack-level GlobalManager: the Memory Manager pattern one level up.
//
// Nodes ship NodeStats roll-ups over their inter-node uplinks; the
// GlobalManager keeps the latest per node and, once per global interval
// (a multiple of the node sampling interval — rack decisions are slower
// than node decisions), runs a node-level policy and sends one quota per
// node over that node's inter-node downlink. The same robustness rules as
// the per-VM path apply: stale roll-ups are dropped by seq, unchanged
// quota vectors are suppressed, every decision is auditable — records are
// stamped scope="cluster" and their "vms" entries carry node ids.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "cluster/global_policy.hpp"
#include "cluster/node_stats.hpp"
#include "comm/delta.hpp"
#include "obs/audit.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace smartmem::cluster {

struct GlobalManagerConfig {
  /// Global decision interval. Cluster defaults it to twice the node
  /// sampling interval.
  SimTime interval = 2 * kSecond;

  /// Quota downlink framing (DESIGN §12): between full fan-outs every
  /// resync_every quota rounds, only the nodes whose quota changed are
  /// sent (a NodeQuotaMsg is self-contained and idempotent, so per-node
  /// gaps are safe under the per-node seq check). The default
  /// resync_every = 1 sends every quota every round.
  comm::DeltaConfig delta;
};

class GlobalManager {
 public:
  GlobalManager(sim::Simulator& sim, GlobalPolicyPtr policy,
                GlobalManagerConfig config);

  GlobalManager(const GlobalManager&) = delete;
  GlobalManager& operator=(const GlobalManager&) = delete;

  /// Outbound transport: called once per node per decision (after
  /// suppression). The cluster wires this to the inter-node downlinks.
  using QuotaSender = std::function<void(NodeId, const NodeQuotaMsg&)>;
  void set_sender(QuotaSender sender) { sender_ = std::move(sender); }

  /// Inbound endpoint: the inter-node uplinks deliver here.
  void on_node_stats(const NodeStats& stats);

  /// Schedules the periodic decision tick. stop() cancels it.
  void start();
  void stop();

  /// Runs one decision now (exposed for tests; the periodic tick calls
  /// exactly this).
  void decide();

  void attach_obs(obs::TraceRecorder* trace, obs::AuditLog* audit);

  /// Registers gm.* counters plus, for nodes 0..node_count-1, per-node
  /// roll-up staleness gauges ("gm.n<i>.rollup_age_intervals" — age of the
  /// latest applied roll-up in global decision intervals, NaN before the
  /// first one — and "gm.n<i>.rollup_seq") and the rack-wide age
  /// distribution fed at every decision round. This is the signal the
  /// interval-controller fidelity item needs: drop counts say a roll-up
  /// was lost, these say how stale each node's view actually is.
  void register_metrics(obs::Registry& reg, std::size_t node_count = 0) const;

  const GlobalPolicy& policy() const { return *policy_; }
  std::uint64_t rollups_seen() const { return rollups_seen_; }
  std::uint64_t stale_rollups_dropped() const {
    return stale_rollups_dropped_;
  }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t quotas_sent() const { return quotas_sent_; }
  std::uint64_t sends_suppressed() const { return sends_suppressed_; }
  std::size_t nodes_seen() const { return stats_vec_.size(); }
  /// Decision rounds resolved without running the policy because no
  /// roll-up payload changed since the previous round. The global policies
  /// are pure, so the output could only equal the suppressed previous
  /// vector. Never taken while auditing (audits want the per-node
  /// verdicts).
  std::uint64_t clean_decides() const { return clean_decides_; }
  /// Per-node quota sends skipped because the value was unchanged
  /// (resync_every > 1 only).
  std::uint64_t quota_sends_skipped() const { return quota_sends_skipped_; }

 private:
  sim::Simulator& sim_;
  GlobalPolicyPtr policy_;
  GlobalManagerConfig config_;
  QuotaSender sender_;

  /// Materialized rack view: latest roll-up per node, kept sorted by node
  /// id in an indexed vector so decide() reads it in place instead of
  /// rebuilding, with the cluster capacity folded incrementally as
  /// roll-ups arrive (O(1) per roll-up, not O(nodes) per decision).
  std::vector<NodeStats> stats_vec_;
  std::map<NodeId, std::size_t> index_;   // node id -> stats_vec_ position
  PageCount cluster_tmem_ = 0;            // running sum of phys_tmem
  bool dirty_since_decide_ = false;       // any payload change since decide()
  std::map<NodeId, std::uint64_t> last_seq_;
  std::optional<std::vector<NodeQuota>> last_sent_;
  std::map<NodeId, PageCount> last_quota_sent_;  // quota framing state
  std::uint64_t quota_rounds_ = 0;        // quota-sending decisions
  std::uint64_t next_send_seq_ = 0;

  /// Per-node roll-up age at decision time, in decision intervals (fed for
  /// every node on every decide(), clean fast path included; only while a
  /// registry is attached — decide() is otherwise obs-free).
  Histogram rollup_age_hist_{0.0, 4.0, 32};
  mutable bool metrics_attached_ = false;

  std::uint64_t rollups_seen_ = 0;
  std::uint64_t stale_rollups_dropped_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t quotas_sent_ = 0;
  std::uint64_t sends_suppressed_ = 0;
  std::uint64_t clean_decides_ = 0;
  std::uint64_t quota_sends_skipped_ = 0;

  sim::EventHandle tick_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::AuditLog* audit_ = nullptr;
  obs::PolicyAuditScratch scratch_;
  std::uint16_t track_ = 0;
};

}  // namespace smartmem::cluster
