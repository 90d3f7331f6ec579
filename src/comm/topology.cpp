#include "comm/topology.hpp"

#include <algorithm>

#include "common/strfmt.hpp"

namespace smartmem::comm {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt) {
  std::uint64_t x = base + salt * 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

ClusterTopology::ClusterTopology() {
  internode_up.name = "gm_up";
  internode_down.name = "gm_down";
  // Crossing the rack fabric: ~50x the intra-node hop, still far below the
  // sampling interval so quota decisions stay one global interval stale.
  internode_up.latency = 5 * kMillisecond;
  internode_down.latency = 5 * kMillisecond;
  // The lending data plane bypasses the switch path: RDMA-class per-hop
  // latency, so a fault-free round trip (req + donor service + resp) costs
  // 85 us: about 5x the NVM tier, below the virtual disk's 150 us access.
  internode_lend_req.name = "lend_req";
  internode_lend_req.latency = 40 * kMicrosecond;
  internode_lend_resp.name = "lend_resp";
  internode_lend_resp.latency = 40 * kMicrosecond;
}

CommConfig ClusterTopology::node_comm_for(std::size_t node) const {
  if (node == 0) return node_comm;  // byte-identity with the single-node path
  CommConfig c = node_comm;
  c.seed = derive_seed(c.seed, static_cast<std::uint64_t>(node));
  return c;
}

namespace {

ChannelConfig finalize(ChannelConfig c, std::size_t node, std::uint64_t seed,
                       std::uint64_t which) {
  c.name = strfmt("n%zu.%s", node, c.name.c_str());
  if (c.seed == 0) {
    c.seed = derive_seed(
        seed, (static_cast<std::uint64_t>(node) << 1) | which);
  }
  return c;
}

}  // namespace

ChannelConfig ClusterTopology::uplink_for(std::size_t node) const {
  auto it = up_overrides.find(node);
  return finalize(it != up_overrides.end() ? it->second : internode_up, node,
                  seed, 0);
}

ChannelConfig ClusterTopology::downlink_for(std::size_t node) const {
  return finalize(internode_down, node, seed, 1);
}

ChannelConfig ClusterTopology::lend_req_for(std::size_t borrower,
                                            std::size_t donor) const {
  ChannelConfig c = internode_lend_req;
  c.name = strfmt("n%zu.d%zu.%s", borrower, donor, c.name.c_str());
  if (c.seed == 0) {
    // Pair salts live far above the (node << 1 | which) control-plane salts
    // so the streams can never collide.
    c.seed = derive_seed(seed, 0x4c000000ULL |
                                   (static_cast<std::uint64_t>(borrower) << 13) |
                                   (static_cast<std::uint64_t>(donor) << 1));
  }
  return c;
}

ChannelConfig ClusterTopology::lend_resp_for(std::size_t borrower,
                                             std::size_t donor) const {
  ChannelConfig c = internode_lend_resp;
  c.name = strfmt("n%zu.d%zu.%s", borrower, donor, c.name.c_str());
  if (c.seed == 0) {
    c.seed = derive_seed(seed, 0x4c000000ULL |
                                   (static_cast<std::uint64_t>(borrower) << 13) |
                                   (static_cast<std::uint64_t>(donor) << 1) | 1);
  }
  return c;
}

SimTime ClusterTopology::min_internode_latency() const {
  // Templates plus every override, so the answer is conservative when an
  // override replaces the template on every node.
  SimTime lo = std::min(internode_up.latency, internode_down.latency);
  for (const auto& [node, c] : up_overrides) lo = std::min(lo, c.latency);
  return lo;
}

}  // namespace smartmem::comm
