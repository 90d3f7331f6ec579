// ClusterTopology: single-node byte-identity of the node-0 config, seed
// derivation and independence for higher nodes, per-node override semantics
// (latency asymmetry), outage isolation between per-node channels, and the
// rack's contract (a multi-node Cluster needs a positive minimum inter-node
// latency; a 1-node cluster is the plain single-node path).
#include "comm/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "core/scenario.hpp"
#include "sim/simulator.hpp"
#include "workloads/script_workload.hpp"

namespace smartmem::comm {
namespace {

TEST(ClusterTopologyTest, NodeZeroCommIsVerbatim) {
  ClusterTopology topo;
  topo.node_comm.seed = 0x1234;
  topo.node_comm.uplink.latency = 123 * kMicrosecond;
  const CommConfig c = topo.node_comm_for(0);
  EXPECT_EQ(c.seed, 0x1234u);
  EXPECT_EQ(c.uplink.name, topo.node_comm.uplink.name);
  EXPECT_EQ(c.uplink.latency, 123 * kMicrosecond);
}

TEST(ClusterTopologyTest, HigherNodesGetIndependentDerivedSeeds) {
  ClusterTopology topo;
  topo.node_comm.seed = 0x1234;
  const std::uint64_t s1 = topo.node_comm_for(1).seed;
  const std::uint64_t s2 = topo.node_comm_for(2).seed;
  EXPECT_NE(s1, topo.node_comm.seed);
  EXPECT_NE(s2, topo.node_comm.seed);
  EXPECT_NE(s1, s2);
  // Pure function of (base seed, node index): stable across calls.
  EXPECT_EQ(topo.node_comm_for(1).seed, s1);
  EXPECT_EQ(s1, derive_seed(0x1234, 1));
}

TEST(ClusterTopologyTest, InternodeChannelsGetPrefixedNamesAndDistinctSeeds) {
  ClusterTopology topo;
  EXPECT_EQ(topo.uplink_for(0).name, "n0.gm_up");
  EXPECT_EQ(topo.downlink_for(0).name, "n0.gm_down");
  EXPECT_EQ(topo.uplink_for(3).name, "n3.gm_up");

  std::vector<std::uint64_t> seeds;
  for (std::size_t n = 0; n < 4; ++n) {
    seeds.push_back(topo.uplink_for(n).seed);
    seeds.push_back(topo.downlink_for(n).seed);
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_NE(seeds[i], 0u);
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << "i=" << i << " j=" << j;
    }
  }
  EXPECT_EQ(topo.uplink_for(2).seed, derive_seed(topo.seed, (2ULL << 1) | 0));
  EXPECT_EQ(topo.downlink_for(2).seed, derive_seed(topo.seed, (2ULL << 1) | 1));
}

TEST(ClusterTopologyTest, ExplicitChannelSeedIsKept) {
  ClusterTopology topo;
  topo.internode_up.seed = 77;
  EXPECT_EQ(topo.uplink_for(3).seed, 77u);
  EXPECT_EQ(topo.uplink_for(3).name, "n3.gm_up");  // prefix still applied
}

// A node-A outage must not drop node-B traffic. Each node's inter-node hop
// is its own Channel, so a down window on one node's channel cannot leak
// into its neighbours.
TEST(ClusterTopologyTest, NodeOutageDoesNotDropOtherNodesTraffic) {
  ClusterTopology topo;
  ChannelConfig dark = topo.uplink_for(0);
  dark.faults.down_from = 0;
  dark.faults.down_until = 10 * kSecond;

  sim::Simulator sim;
  Channel<int> node0(sim, dark);
  Channel<int> node1(sim, topo.uplink_for(1));
  int delivered1 = 0;
  node0.open([](const int&) { FAIL() << "node 0 is in an outage window"; });
  node1.open([&](const int&) { ++delivered1; });
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(node0.send(i), SendResult::kDown);
    EXPECT_EQ(node1.send(i), SendResult::kQueued);
  }
  sim.run_until(kSecond);
  EXPECT_EQ(node0.stats().dropped_down, 3u);
  EXPECT_EQ(node0.stats().delivered, 0u);
  EXPECT_EQ(node1.stats().delivered, 3u);
  EXPECT_EQ(delivered1, 3);
}

// ---- Rack input contract -----------------------------------------------

ClusterTopology zero_delay_rack() {
  ClusterTopology topo;
  topo.internode_up.latency = 0;
  return topo;
}

core::NodeConfig tiny_node() {
  core::NodeConfig cfg;
  cfg.tmem_pages = 64;
  cfg.sample_interval = 100 * kMillisecond;
  return cfg;
}

core::VmSpec tiny_vm() {
  core::VmSpec vm;
  vm.ram_pages = 64;
  vm.workload = std::make_unique<workloads::ScriptWorkload>(
      std::vector<workloads::MemOp>{
          workloads::MemOp::alloc(96),
          workloads::MemOp::touch(0, 0, 96, 400,
                                  workloads::AccessPattern::kSequential, true,
                                  kMicrosecond)});
  return vm;
}

TEST(RackContractTest, ZeroDelayRackHopRejectedBeforeAnyEventRuns) {
  // A zero-delay hop gives the engine no safe window: a 2-node rack must
  // refuse to start rather than run unsynchronized shards.
  cluster::ClusterConfig cfg;
  cfg.topology = zero_delay_rack();
  ASSERT_EQ(cfg.topology.min_internode_latency(), 0);
  cluster::Cluster rack(std::move(cfg));
  rack.add_node(tiny_node());
  rack.add_node(tiny_node());
  rack.node(0).add_vm(tiny_vm());
  EXPECT_THROW(rack.run(), std::invalid_argument);
  for (std::size_t i = 0; i < rack.node_count(); ++i) {
    EXPECT_EQ(rack.node(i).simulator().executed_events(), 0u);
    EXPECT_EQ(rack.node(i).simulator().pending_events(), 0u);
  }
  EXPECT_EQ(rack.simulator().executed_events(), 0u);
}

TEST(RackContractTest, SingleNodeRunsOnAnyRackTopology) {
  // One node wires no rack hop at all, so the topology's hop latency is
  // irrelevant: the node runs its plain single-node stack.
  cluster::ClusterConfig cfg;
  cfg.topology = zero_delay_rack();
  cluster::Cluster rack(std::move(cfg));
  rack.add_node(tiny_node());
  const VmId vm = rack.node(0).add_vm(tiny_vm());
  const SimTime end = rack.run();
  EXPECT_GT(end, 0);
  EXPECT_TRUE(rack.all_done());
  EXPECT_TRUE(rack.node(0).runner(vm).finished());
  EXPECT_EQ(rack.engine(), nullptr);
  EXPECT_EQ(rack.global_manager(), nullptr);
}

TEST(RackContractTest, OneNodeClusterMatchesThePlainNode) {
  // The 1-node cell of the cluster experiment runs no rack: its hot node
  // must reproduce a plain usemem node under smart P = 25 % exactly, and
  // no page may cross a (nonexistent) lending hop.
  constexpr double kScale = 0.0625;
  constexpr std::uint64_t kSeed = 1;
  cluster::ClusterExperimentConfig cfg;
  cfg.nodes = 1;
  cfg.scale = kScale;
  cfg.seed = kSeed;
  const cluster::ClusterRunResult rack = cluster::run_cluster_scenario(cfg);
  ASSERT_EQ(rack.nodes.size(), 1u);
  const cluster::ClusterNodeResult& n = rack.nodes[0];

  const core::ScenarioSpec spec = core::usemem_scenario(kScale);
  auto node = core::build_node(spec, mm::PolicySpec::smart(25.0), kSeed);
  const SimTime end = node->run(spec.deadline);
  std::uint64_t failed = 0, total = 0, succ = 0;
  double runtime_s = 0.0;
  for (VmId vm : node->vm_ids()) {
    const hyper::VmData& vd = node->hypervisor().vm_data(vm);
    failed += vd.cumul_puts_failed;
    total += vd.cumul_puts_total;
    succ += vd.cumul_puts_succ;
    if (node->runner(vm).started()) {
      runtime_s = std::max(runtime_s,
                           to_seconds(node->runner(vm).finish_time()));
    }
  }

  EXPECT_GT(total, 0u);
  EXPECT_EQ(n.failed_puts, failed);
  EXPECT_EQ(n.puts_total, total);
  EXPECT_EQ(n.puts_succ, succ);
  EXPECT_EQ(rack.aggregate_failed_puts, failed);
  EXPECT_EQ(n.runtime_s, runtime_s);
  EXPECT_EQ(rack.makespan_s, to_seconds(end));
  EXPECT_EQ(n.remote_puts, 0u);
  EXPECT_EQ(n.remote_gets, 0u);
  EXPECT_EQ(n.final_quota, kUnlimitedTarget);
}

}  // namespace
}  // namespace smartmem::comm
