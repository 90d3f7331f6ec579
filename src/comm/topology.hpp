// Cluster communication topology.
//
// ROADMAP's first open item generalizes the single node's uplink/downlink
// pair into a rack: N VirtualNodes, each keeping its private intra-node
// control plane (VIRQ/netlink/hypercall, modeled by CommConfig), plus one
// extra hop pair per node crossing the rack fabric to the rack-level
// GlobalManager. The inter-node hops are ordinary Channel<T>s — every fault
// knob and queue policy applies — just with a default latency in the
// milliseconds (a switch traversal, not a VM exit).
//
// Determinism contract: node_comm_for(0) returns `node_comm` verbatim, so a
// one-node cluster derives exactly the channel seeds the single-node path
// derives and reproduces its output byte-for-byte. Higher nodes remix the
// seed through splitmix64 so their fault draws are independent but still
// pure functions of (topology seed, node index).
#pragma once

#include <cstddef>

#include "comm/channel.hpp"

namespace smartmem::comm {

/// Deterministic seed derivation for per-node channel streams (splitmix64
/// finalizer; exposed for tests that assert stream independence).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt);

/// Static description of a rack: what each node's internal control plane
/// looks like, and what the inter-node hops to the rack-level GlobalManager
/// look like. Pure configuration — the cluster subsystem instantiates the
/// actual channels from it, one set per node it builds.
struct ClusterTopology {
  /// Template for every node's intra-node control plane. Node 0 uses it
  /// verbatim (single-node byte-identity); nodes >= 1 get a remixed seed.
  CommConfig node_comm;

  /// Templates for the inter-node hops: node hypervisor -> GlobalManager
  /// (NodeStats roll-ups) and GlobalManager -> node (quota vectors).
  ChannelConfig internode_up;
  ChannelConfig internode_down;

  /// Templates for the lending *data plane*: the borrower -> donor request
  /// hop and the donor -> borrower response hop a borrowed page crosses
  /// (comm/lend_wire.hpp frames). Defaults are RDMA-class (40 us per
  /// direction — a page copy over the rack's data fabric, not the 5 ms
  /// control-plane switch path), so a fault-free round trip with the
  /// donor's 5 us service costs 85 us. The lending fabric honours each
  /// hop's latency, loss rate, reorder rate and penalty, and outage window.
  /// A borrow is one synchronous exchange, so nothing queues on a hop: the
  /// fabric rejects a duplication rate, a queue_capacity or a drop-oldest
  /// queue_policy on either hop (cluster::LendFabric).
  ChannelConfig internode_lend_req;
  ChannelConfig internode_lend_resp;

  /// Base seed for inter-node channels whose own seed is 0.
  std::uint64_t seed = 0x636c757374657257ULL;

  ClusterTopology();

  /// Intra-node control-plane config for `node` (0-based).
  CommConfig node_comm_for(std::size_t node) const;

  /// Inter-node hop configs for `node`, with the channel name prefixed
  /// "n<node>." and a derived seed when the config's is 0.
  ChannelConfig uplink_for(std::size_t node) const;
  ChannelConfig downlink_for(std::size_t node) const;

  /// Lending-hop configs for the ordered (borrower, donor) pair: the
  /// request hop and the response hop. Named "n<b>.d<d>.lend_req/resp";
  /// when the template's seed is 0 each pair derives an independent stream
  /// from the topology seed, so fault draws on one pair never perturb
  /// another (borrower partitions stay shard-local).
  ChannelConfig lend_req_for(std::size_t borrower, std::size_t donor) const;
  ChannelConfig lend_resp_for(std::size_t borrower, std::size_t donor) const;

  /// Minimum latency over the inter-node hops (the uplink and downlink
  /// templates every node shares) — the safe lookahead for the parallel
  /// engine's conservative windows. 0 (a zero-delay hop) means no safe
  /// window exists and the engine will refuse to run sharded.
  ///
  /// The lending data-plane hops are deliberately excluded: borrow round
  /// trips are simulated entirely inside the borrower's partition (the
  /// donor-side settlement happens at window barriers), so they never post
  /// cross-shard events and must not shrink the engine's windows to the
  /// 40 us data-plane scale.
  SimTime min_internode_latency() const;
};

}  // namespace smartmem::comm
