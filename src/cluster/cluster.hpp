// Cluster: N VirtualNodes under a two-level capacity hierarchy.
//
// Level 1 is the paper's single-server stack, unchanged: each node keeps
// its private hypervisor, tmem store, guests, TKM and Memory Manager.
// Level 2 is the rack: every node's memstats roll-up crosses an inter-node
// uplink to the GlobalManager, which answers with per-node tmem quotas
// over inter-node downlinks; each node's hypervisor enforces its quota as
// a cap *above* the per-VM targets (Equation 2 renormalizes beneath the
// quota). Optionally a LendingBroker turns unused entitlement on cold
// nodes into borrowable frames for quota-rich, physically-full nodes.
//
// Execution model: each node is a simulator *shard* — a private
// sim::Simulator holding that node's whole event stream — plus one rack
// shard for the GlobalManager and the downlink sources. A conservative
// sim::ParallelEngine advances all shards on the calling thread in windows
// bounded by the minimum inter-node channel latency (the ~5 ms rack hop);
// cross-shard traffic (stats roll-ups, quota vectors, lending settlement)
// moves only at window barriers, in a deterministic total order. The
// rack hops must have a positive minimum latency: a topology without one
// (a zero-delay hop) admits no safe window, and start() rejects it for a
// cluster of two or more nodes.
//
// Determinism contract: a 1-node cluster wires *nothing* beyond the node
// itself — no GlobalManager, no broker, no inter-node channels, no stats
// tap, no engine — and runs VirtualNode::run, so its output is
// byte-identical to the single-node path for the same NodeConfig and seed.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/global_manager.hpp"
#include "comm/delta.hpp"
#include "cluster/lending.hpp"
#include "cluster/node_stats.hpp"
#include "comm/topology.hpp"
#include "core/virtual_node.hpp"
#include "obs/observer.hpp"
#include "sim/parallel.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"

namespace smartmem::cluster {

struct ClusterConfig {
  /// Inter-node fabric + per-node comm templates, applied to every node
  /// added with add_node.
  comm::ClusterTopology topology;

  /// Node-level policy spec ("global-static", "global-smart[:P]").
  std::string global_policy = "global-smart";

  /// Global decision interval; 0 derives twice the first node's sampling
  /// interval (rack decisions are deliberately slower than node decisions).
  SimTime global_interval = 0;

  /// Remote-tmem lending between nodes.
  bool lending = true;

  /// Protocol knobs of the lending data plane (cluster/lend_fabric.hpp):
  /// every borrow is one synchronous request/response round trip over the
  /// topology's lending hops, with faults, timeouts, retries, donor
  /// queueing and an optional borrower-side cache. The defaults inject no
  /// fault and keep the cache off.
  AsyncLendingConfig lending_async;

  /// Fleet-scale control plane (DESIGN §12) on the *rack* hops: between
  /// full resends every resync_every samples per node, suppress NodeStats
  /// roll-ups whose payload is unchanged and send only changed quotas. The
  /// default resync_every = 1 sends everything. The per-node VM hops take
  /// their framing from each NodeConfig's comm.delta instead.
  comm::DeltaConfig delta;

  /// Self-profile the engine: per-shard busy/injection accounting and
  /// critical-path attribution (sim/profiler.hpp). Shards are labelled
  /// "n0".."nK" and "rack". Wall-clock derived — the event schedule and
  /// every simulation outcome stay byte-identical; the results surface via
  /// profiler() and, with a metrics registry attached, as "engine."-prefixed
  /// gauges. Ignored by a 1-node cluster.
  bool profile = false;

  /// Rack-level observability (GlobalManager audit/trace, lending and
  /// inter-node channel metrics). Per-node observability stays per node.
  obs::ObsConfig obs;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Adds a node running `config` on its own simulator shard. Call
  /// core::populate_node(cluster.node(i), ...) afterwards to add its VMs.
  /// Nodes must all be added before start()/run().
  std::size_t add_node(core::NodeConfig config);

  core::VirtualNode& node(std::size_t i) { return *nodes_.at(i); }
  const core::VirtualNode& node(std::size_t i) const { return *nodes_.at(i); }
  std::size_t node_count() const { return nodes_.size(); }

  /// Wires the rack (channels, GlobalManager, broker, engine — 2+ nodes
  /// only) and starts every node. run() calls this when needed. Throws
  /// std::invalid_argument, before any event runs, when 2+ nodes meet a
  /// topology with no positive minimum inter-node latency.
  void start();

  /// Advances the simulation until every node's VMs are done (or the
  /// deadline), then tears everything down. Returns the end time.
  SimTime run(SimTime deadline = 4 * 3600 * kSecond);

  /// The rack shard's simulator (unused by a 1-node cluster, which runs on
  /// node(0).simulator()).
  sim::Simulator& simulator() { return sim_; }
  GlobalManager* global_manager() { return gm_.get(); }
  LendingBroker* broker() { return broker_.get(); }
  obs::Observer* observer() { return observer_.get(); }
  sim::ParallelEngine* engine() { return engine_.get(); }
  /// Engine self-profile; nullptr unless config.profile and 2+ nodes.
  const sim::EngineProfiler* profiler() const { return profiler_.get(); }
  const ClusterConfig& config() const { return config_; }
  bool all_done() const;

  /// Roll-ups not sent because the payload matched the node's previous one
  /// (resync_every > 1 only). Sums per-node slots, so call it only between
  /// windows or after the run.
  std::uint64_t rollups_suppressed() const;
  /// Rack control-plane payload bytes actually sent (uplinks + downlinks).
  std::uint64_t rack_control_bytes() const;

 private:
  void wire_rack();
  void on_node_sample(std::size_t i, const hyper::MemStats& stats);
  void on_quota(std::size_t i, const NodeQuotaMsg& msg);
  void on_barrier(SimTime end);
  void teardown();

  ClusterConfig config_;
  // The rack shard: GlobalManager + downlink sources.
  sim::Simulator sim_;
  std::vector<std::unique_ptr<core::VirtualNode>> nodes_;
  std::vector<std::unique_ptr<comm::Channel<NodeStats>>> uplinks_;
  std::vector<std::unique_ptr<comm::Channel<NodeQuotaMsg>>> downlinks_;
  std::unique_ptr<sim::ParallelEngine> engine_;
  std::unique_ptr<sim::EngineProfiler> profiler_;
  std::size_t rack_shard_ = 0;
  std::unique_ptr<GlobalManager> gm_;
  std::unique_ptr<LendingBroker> broker_;
  std::unique_ptr<obs::Observer> observer_;
  // Per-node-shard trace rings (uplink spans, lending instants), merged
  // into the rack recorder at teardown.
  std::vector<std::unique_ptr<obs::TraceRecorder>> node_traces_;
  SimTime snapshot_interval_ = 0;  // barrier-driven metrics snapshots
  SimTime next_snapshot_ = 0;
  // Roll-up framing state, one slot per node — each written only from that
  // node's shard: last payload sent, the sample occasion counter driving
  // the resync cadence, and the suppressed-send count.
  std::vector<std::optional<NodeStats>> last_rollup_;
  std::vector<std::uint64_t> rollup_rounds_;
  std::vector<std::uint64_t> rollups_suppressed_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace smartmem::cluster
