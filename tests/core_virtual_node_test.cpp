// VirtualNode wiring: policy plumbing, manual starts and node-wide stop.
#include "core/virtual_node.hpp"

#include <gtest/gtest.h>

#include "workloads/script_workload.hpp"
#include "workloads/usemem.hpp"

namespace smartmem::core {
namespace {

using workloads::MemOp;
using workloads::ScriptWorkload;

NodeConfig tiny_node(mm::PolicySpec policy) {
  NodeConfig cfg;
  cfg.tmem_pages = 64;
  cfg.policy = policy;
  cfg.sample_interval = 100 * kMillisecond;
  return cfg;
}

VmSpec tiny_vm(const std::string& name, std::vector<MemOp> ops) {
  VmSpec vm;
  vm.name = name;
  vm.ram_pages = 64;
  vm.workload = std::make_unique<ScriptWorkload>(std::move(ops));
  return vm;
}

std::vector<MemOp> pressure_script() {
  return {
      MemOp::alloc(96),
      MemOp::touch(0, 0, 96, 400, workloads::AccessPattern::kSequential, true,
                   kMicrosecond),
      MemOp::marker("done"),
  };
}

TEST(VirtualNodeTest, GreedyHasNoManager) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  EXPECT_EQ(node.manager(), nullptr);
  EXPECT_EQ(node.tkm(), nullptr);
}

TEST(VirtualNodeTest, ManagedPolicyWiresManagerAndTkm) {
  VirtualNode node(tiny_node(mm::PolicySpec::smart(2.0)));
  EXPECT_NE(node.manager(), nullptr);
  EXPECT_NE(node.tkm(), nullptr);
}

TEST(VirtualNodeTest, VmIdsAreOneBasedAndNamed) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  const VmId a = node.add_vm(tiny_vm("alpha", {MemOp::marker("m")}));
  const VmId b = node.add_vm(tiny_vm("", {MemOp::marker("m")}));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(node.vm_name(a), "alpha");
  EXPECT_EQ(node.vm_name(b), "VM2");
  EXPECT_THROW(node.vm_name(3), std::out_of_range);
  EXPECT_THROW(node.vm_name(0), std::out_of_range);
}

TEST(VirtualNodeTest, RunCompletesAllVms) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  node.add_vm(tiny_vm("VM1", pressure_script()));
  node.add_vm(tiny_vm("VM2", pressure_script()));
  const SimTime end = node.run();
  EXPECT_TRUE(node.all_done());
  EXPECT_GT(end, 0);
  for (VmId id : node.vm_ids()) {
    EXPECT_TRUE(node.runner(id).finished());
  }
}

TEST(VirtualNodeTest, ManagedRunDeliversStatsAndTargets) {
  VirtualNode node(tiny_node(mm::PolicySpec::static_alloc()));
  node.add_vm(tiny_vm("VM1", {MemOp::sleep(kSecond), MemOp::marker("m")}));
  node.add_vm(tiny_vm("VM2", {MemOp::sleep(kSecond), MemOp::marker("m")}));
  node.run();
  ASSERT_NE(node.manager(), nullptr);
  EXPECT_GT(node.manager()->samples_seen(), 0u);
  EXPECT_GE(node.manager()->targets_sent(), 1u);
  // Static split of 64 pages over 2 VMs.
  EXPECT_EQ(node.hypervisor().target(1), 32u);
  EXPECT_EQ(node.hypervisor().target(2), 32u);
}

/// Runs a smart-alloc node with `cfg`'s default control plane and checks
/// that every message on both TKM hops went out as a full vector: the
/// paper's wire format, 57 + 44 bytes per VM up, whatever the units.
void expect_full_vector_wire(NodeConfig cfg) {
  VirtualNode node(std::move(cfg));
  // Swap pressure, then a second of idling so the MM samples and decides.
  std::vector<MemOp> script = pressure_script();
  script.insert(script.end() - 1, MemOp::sleep(kSecond));
  node.add_vm(tiny_vm("VM1", script));
  node.add_vm(tiny_vm("VM2", script));
  mm::MemoryManager* mgr = node.manager();
  guest::Tkm* tkm = node.tkm();
  ASSERT_NE(mgr, nullptr);
  std::uint64_t target_msgs = 0;
  std::uint64_t delta_targets = 0;
  mgr->set_sender([&](const hyper::TargetsMsg& msg) {
    ++target_msgs;
    if (msg.delta) ++delta_targets;
    tkm->submit_targets(msg);
  });
  node.run();

  const comm::ChannelStats& up = tkm->uplink().stats();
  ASSERT_GT(up.sent, 0u);
  EXPECT_EQ(tkm->stats_delta_sends(), 0u);
  EXPECT_EQ(tkm->stats_full_sends(), up.sent);
  EXPECT_EQ(up.payload_bytes, up.sent * (57 + 44 * node.vm_ids().size()));

  ASSERT_GT(mgr->targets_sent(), 0u);
  EXPECT_EQ(delta_targets, 0u);
  EXPECT_EQ(target_msgs, mgr->targets_sent());
  EXPECT_EQ(mgr->targets_full_sends(), mgr->targets_sent());
}

TEST(VirtualNodeTest, DefaultControlPlaneSendsFullVectors) {
  expect_full_vector_wire(tiny_node(mm::PolicySpec::smart(2.0)));
}

TEST(VirtualNodeTest, DefaultControlPlaneSendsFullVectorsInByteUnits) {
  NodeConfig cfg = tiny_node(mm::PolicySpec::smart(2.0));
  cfg.compressed_pool_bytes = 16 * kPageSize;
  cfg.capacity_units = CapacityUnits::kBytes;
  expect_full_vector_wire(std::move(cfg));
}

TEST(VirtualNodeTest, NoTmemDisablesFrontswap) {
  VirtualNode node(tiny_node(mm::PolicySpec::no_tmem()));
  node.add_vm(tiny_vm("VM1", pressure_script()));
  node.run();
  EXPECT_EQ(node.hypervisor().vm_data(1).cumul_puts_total, 0u);
  EXPECT_GT(node.kernel(1).stats().swapouts_disk, 0u);
}

TEST(VirtualNodeTest, StartDelayAndJitterlessStagger) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  auto vm1 = tiny_vm("VM1", {MemOp::marker("m")});
  auto vm2 = tiny_vm("VM2", {MemOp::marker("m")});
  vm2.start_delay = 2 * kSecond;
  node.add_vm(std::move(vm1));
  node.add_vm(std::move(vm2));
  node.run();
  EXPECT_EQ(node.runner(1).start_time(), 0);
  EXPECT_EQ(node.runner(2).start_time(), 2 * kSecond);
}

TEST(VirtualNodeTest, ManualStartViaMarkerTrigger) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  auto vm1 = tiny_vm("VM1", {MemOp::sleep(kSecond), MemOp::marker("go")});
  auto vm2 = tiny_vm("VM2", {MemOp::marker("started")});
  vm2.manual_start = true;
  node.add_vm(std::move(vm1));
  node.add_vm(std::move(vm2));
  node.set_marker_hook([&](VmId vm, const std::string& label, SimTime) {
    if (vm == 1 && label == "go") node.start_vm(2);
  });
  node.run();
  EXPECT_TRUE(node.runner(2).finished());
  EXPECT_GE(node.runner(2).start_time(), kSecond);
}

TEST(VirtualNodeTest, UnstartedManualVmDoesNotBlockCompletion) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  node.add_vm(tiny_vm("VM1", {MemOp::marker("m")}));
  auto vm2 = tiny_vm("VM2", {MemOp::marker("never")});
  vm2.manual_start = true;
  node.add_vm(std::move(vm2));
  node.run();
  EXPECT_TRUE(node.all_done());
  EXPECT_FALSE(node.runner(2).started());
}

TEST(VirtualNodeTest, StopAllEndsEndlessWorkloads) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  workloads::UsememConfig ucfg;
  ucfg.start_pages = 16;
  ucfg.step_pages = 16;
  ucfg.max_pages = 48;
  ucfg.passes_at_max = 0;  // endless
  VmSpec vm;
  vm.name = "VM1";
  vm.ram_pages = 64;
  vm.workload = std::make_unique<workloads::Usemem>(ucfg);
  node.add_vm(std::move(vm));
  node.start();
  node.simulator().schedule(kSecond, [&] { node.stop_all(); });
  node.run();
  EXPECT_TRUE(node.all_done());
  EXPECT_GE(node.runner(1).finish_time(), kSecond);
}

TEST(VirtualNodeTest, DeadlineStopsRunaways) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  workloads::UsememConfig ucfg;
  ucfg.start_pages = 16;
  ucfg.step_pages = 16;
  ucfg.max_pages = 48;
  VmSpec vm;
  vm.name = "VM1";
  vm.ram_pages = 64;
  vm.workload = std::make_unique<workloads::Usemem>(ucfg);
  node.add_vm(std::move(vm));
  const SimTime end = node.run(2 * kSecond);
  EXPECT_TRUE(node.all_done());
  EXPECT_GE(end, 2 * kSecond);
  EXPECT_LT(end, 10 * kSecond);
}

TEST(VirtualNodeTest, SharedDiskIsSingleDevice) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  node.add_vm(tiny_vm("VM1", {MemOp::marker("m")}));
  node.add_vm(tiny_vm("VM2", {MemOp::marker("m")}));
  EXPECT_EQ(&node.disk(1), &node.disk(2));
}

TEST(VirtualNodeTest, AddVmAfterStartThrows) {
  VirtualNode node(tiny_node(mm::PolicySpec::greedy()));
  node.add_vm(tiny_vm("VM1", {MemOp::marker("m")}));
  node.start();
  EXPECT_THROW(node.add_vm(tiny_vm("VM2", {MemOp::marker("m")})),
               std::logic_error);
  node.run();
}

}  // namespace
}  // namespace smartmem::core
