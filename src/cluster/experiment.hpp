// Canned cluster experiment: a rack with one hot node and N-1 cold nodes.
//
// Node 0 runs the usemem scenario verbatim (sustained frontswap pressure
// ramping well past the node's tmem, so failed puts persist interval after
// interval), which makes a 1-node run of this experiment byte-identical to
// the single-node usemem path.
// Nodes 1..N-1 run a "cluster-cold" variant whose graphs fit inside guest
// RAM: they barely touch tmem, leaving most of their quota as slack. That
// asymmetry is exactly what the node-level policies differ on:
// global-static pins every node at its physical share (no inter-node help
// possible), while global-smart shrinks the cold nodes' quotas, grows the
// hot node's beyond its physical capacity, and — with lending on — turns
// the difference into borrowed frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/scenario.hpp"
#include "obs/observer.hpp"

namespace smartmem::cluster {

struct ClusterExperimentConfig {
  std::size_t nodes = 2;
  double scale = 0.25;
  std::uint64_t seed = 42;
  /// Node-level policy ("global-static", "global-smart[:P]").
  std::string global_policy = "global-smart";
  bool lending = true;
  /// Multiplier on the default (scaled) 5 ms inter-node hop and on the
  /// 40 us lending hops a borrowed page crosses.
  double internode_latency_x = 1.0;
  /// Global decision interval as a multiple of the node sampling interval.
  double global_interval_x = 2.0;
  /// Rack-level observability, forwarded to the Cluster.
  obs::ObsConfig obs;
};

struct ClusterNodeResult {
  std::uint32_t node = 0;
  std::string scenario;
  std::uint64_t failed_puts = 0;  // lifetime, summed over the node's VMs
  std::uint64_t puts_total = 0;
  std::uint64_t puts_succ = 0;
  double runtime_s = 0.0;  // last VM finish on this node
  std::uint64_t remote_puts = 0;
  std::uint64_t remote_gets = 0;
  PageCount final_quota = kUnlimitedTarget;
  PageCount phys_tmem = 0;
};

struct ClusterRunResult {
  std::vector<ClusterNodeResult> nodes;
  std::uint64_t aggregate_failed_puts = 0;
  double makespan_s = 0.0;  // Cluster::run end time (last window end)
  std::uint64_t gm_decisions = 0;
  std::uint64_t quotas_sent = 0;
  std::uint64_t borrow_placements = 0;
  std::uint64_t borrow_hits = 0;
  std::uint64_t recalls = 0;
  PageCount peak_borrowed = 0;
};

/// The cold-node workload spec (exposed for tests).
core::ScenarioSpec cluster_cold_scenario(double scale);

/// Builds, runs and tears down one hot/cold cluster run.
ClusterRunResult run_cluster_scenario(const ClusterExperimentConfig& cfg);

/// Seed for node `i` of a cluster run (node 0 keeps `seed` verbatim for
/// single-node byte-identity; higher nodes remix through splitmix64).
std::uint64_t node_seed(std::uint64_t seed, std::size_t i);

}  // namespace smartmem::cluster
