// VirtualNode: the whole single-server SmarTmem stack wired together.
//
// One VirtualNode owns the discrete-event simulator, the hypervisor with its
// tmem store, the host disk, one guest kernel + vCPU per VM, and — when the
// selected policy requires it — the TKM and the Memory Manager process.
// This is the top-level object library users interact with; the scenario
// runner and all benches are built on it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "common/types.hpp"
#include "guest/guest_kernel.hpp"
#include "guest/tkm.hpp"
#include "hyper/hypervisor.hpp"
#include "mm/manager.hpp"
#include "mm/policy_factory.hpp"
#include "obs/observer.hpp"
#include "core/vcpu.hpp"
#include "sim/cpu.hpp"
#include "sim/disk.hpp"
#include "sim/simulator.hpp"
#include "tier/compressibility.hpp"
#include "workloads/workload.hpp"

namespace smartmem::core {

struct NodeConfig {
  /// Pooled idle/fallow memory available as tmem.
  PageCount tmem_pages = 0;

  /// Ex-Tmem extension: NVM pages extending tmem capacity (0 = off). The
  /// combined DRAM+NVM capacity is what the policies manage.
  PageCount nvm_tmem_pages = 0;

  /// Compressed tier (src/tier): byte budget of the zswap-style pool
  /// (0 = off, the default). Pages spill DRAM -> compressed -> NVM.
  std::uint64_t compressed_pool_bytes = 0;

  /// Compressibility model parameters. seed 0 = derive from the run seed
  /// (the scenario runner's node_config_for); an explicit seed is kept.
  tier::CompressibilityConfig compressibility;

  /// Eviction under put pressure: demote victims down the tier chain
  /// (default) or drop them (the pre-tier behaviour). Ignored while the
  /// compressed pool is off.
  bool compressed_evict_demote = true;

  /// Control-plane capacity units (--capacity-units). kPages is the
  /// paper-faithful default and keeps all figure CSVs byte-identical;
  /// kBytes lets the policies manage the effective bytes the compressed
  /// tier makes elastic.
  CapacityUnits capacity_units = CapacityUnits::kPages;

  /// Which capacity-management policy runs (greedy / static / reconf /
  /// smart / swap-rate / no-tmem).
  mm::PolicySpec policy = mm::PolicySpec::greedy();

  /// Statistics sampling interval (the paper fixes this at one second).
  SimTime sample_interval = kSecond;

  /// Virtual-disk performance for every VM's swap device.
  sim::DiskModel disk;

  /// Guest kernel-op costs (hypercalls, faults, reclaim).
  guest::CostModel costs;

  /// Control-plane fabric: the VIRQ/netlink uplink and hypercall downlink
  /// the TKM runs on — latency distributions, bounded-queue policies and
  /// fault injection. Defaults reproduce the paper's reliable 100 us hops.
  comm::CommConfig comm;

  /// MM-side suppression of unchanged target vectors (see
  /// mm::ManagerConfig). Exposed here so the comms ablation can cross it
  /// with downlink ack/retry: with suppression on, a lost target message
  /// is not naturally repaired by the next interval's (suppressed) resend.
  bool mm_suppress_unchanged = true;

  /// Destructive frontswap gets (see GuestConfig); the paper's kernel
  /// defaults to non-exclusive.
  bool frontswap_exclusive_gets = true;

  /// Enable the cleancache mode in guests (the paper evaluates frontswap
  /// only; cleancache is exercised by dedicated tests/benches).
  bool cleancache = false;

  /// Hypervisor slow background reclaim of over-target ephemeral pages,
  /// per sampling tick (0 = off).
  PageCount slow_reclaim_pages_per_tick = 512;

  /// Optional zero-page dedup in the tmem store (ablation).
  bool zero_page_dedup = false;

  /// Zero-page write model for the guests (see GuestConfig).
  std::uint32_t zero_write_period = 0;

  /// Swap read-ahead cluster size for the guests (see GuestConfig).
  std::uint32_t swap_readahead = 8;

  /// Observability: sim-time tracing, metrics registry and decision audit.
  /// All off by default — the node then allocates no Observer at all and
  /// every instrumentation site reduces to one null-pointer test.
  obs::ObsConfig obs;
};

struct VmSpec {
  std::string name;             // "VM1"
  PageCount ram_pages = 0;
  workloads::WorkloadPtr workload;
  /// Start offset relative to node start; ignored when manual_start.
  SimTime start_delay = 0;
  /// When true the VM only starts via start_vm() (scenario triggers).
  bool manual_start = false;
  std::uint64_t seed = 0;       // 0 -> derived from VM index
};

class VirtualNode {
 public:
  explicit VirtualNode(NodeConfig config);

  VirtualNode(const VirtualNode&) = delete;
  VirtualNode& operator=(const VirtualNode&) = delete;

  /// Adds a VM; returns its id (1-based, matching the paper's VM1..VM3).
  VmId add_vm(VmSpec spec);

  /// Registers a hook fired for every marker of every VM.
  using NodeMarkerHook =
      std::function<void(VmId vm, const std::string& label, SimTime when)>;
  void set_marker_hook(NodeMarkerHook hook) { marker_hook_ = std::move(hook); }

  /// Starts sampling, the MM (if any) and all non-manual VMs.
  void start();

  /// Starts a manual VM now (from inside a marker hook) or at `at`.
  void start_vm(VmId vm);
  void start_vm_at(VmId vm, SimTime at);

  /// Requests every running VM to stop at its next batch boundary.
  void stop_all();

  /// Runs the simulation until every added VM's workload has finished (or
  /// been stopped), or `deadline` is reached. Returns the end time.
  SimTime run(SimTime deadline = 4 * 3600 * kSecond);

  /// Post-run teardown: sampler/control-plane shutdown, final metrics
  /// snapshot and observability export. run() calls this; a
  /// multi-node cluster, whose engine advances this node's simulator as one
  /// shard, calls it per node once the windows have drained. Idempotent.
  void finish();

  /// Observes every VIRQ sample leaving the hypervisor (before uplink
  /// latency/faults). The cluster's per-node roll-up taps here. Must be set
  /// before start().
  using StatsTap = std::function<void(const hyper::MemStats&)>;
  void set_stats_tap(StatsTap tap) { stats_tap_ = std::move(tap); }

  // ---- Accessors ----------------------------------------------------------

  sim::Simulator& simulator() { return sim_; }
  hyper::Hypervisor& hypervisor() { return *hyp_; }
  const hyper::Hypervisor& hypervisor() const { return *hyp_; }
  mm::MemoryManager* manager() { return manager_.get(); }
  guest::Tkm* tkm() { return tkm_.get(); }

  std::size_t vm_count() const { return vms_.size(); }
  VcpuRunner& runner(VmId vm) { return *slot(vm).runner; }
  const VcpuRunner& runner(VmId vm) const { return *slot(vm).runner; }
  guest::GuestKernel& kernel(VmId vm) { return *slot(vm).kernel; }
  const guest::GuestKernel& kernel(VmId vm) const { return *slot(vm).kernel; }
  /// The disk behind `vm`'s virtual disk: the node's one host drive, shared
  /// by every VM as on the paper's testbed, so a thrashing VM's swap
  /// traffic queues behind every other VM's.
  sim::DiskDevice& disk(VmId vm) {
    slot(vm);  // rejects an unknown VM
    return disk_;
  }
  const std::string& vm_name(VmId vm) const { return slot(vm).name; }
  std::vector<VmId> vm_ids() const;

  const NodeConfig& config() const { return config_; }
  const sim::CpuPool& cpu_pool() const { return cpu_pool_; }
  bool all_done() const;

  /// The node's observability root; nullptr when config().obs is all-off.
  obs::Observer* observer() { return observer_.get(); }
  const obs::Observer* observer() const { return observer_.get(); }

 private:
  struct VmSlot {
    std::string name;
    std::unique_ptr<guest::GuestKernel> kernel;
    std::unique_ptr<VcpuRunner> runner;
    SimTime start_delay = 0;
    bool manual_start = false;
  };

  VmSlot& slot(VmId vm);
  const VmSlot& slot(VmId vm) const;

  /// Wires the Observer into every component and registers metrics; called
  /// once from start(), after all VMs exist.
  void wire_observability();

  NodeConfig config_;
  sim::Simulator sim_;
  sim::CpuPool cpu_pool_;
  sim::DiskDevice disk_;
  std::unique_ptr<hyper::Hypervisor> hyp_;
  std::unique_ptr<mm::MemoryManager> manager_;
  std::unique_ptr<guest::Tkm> tkm_;
  std::vector<VmSlot> vms_;  // index = VmId - 1
  NodeMarkerHook marker_hook_;
  StatsTap stats_tap_;
  bool started_ = false;
  bool finished_ = false;
  std::unique_ptr<obs::Observer> observer_;
  std::uint16_t workload_track_ = 0;
  sim::EventHandle metrics_sampler_;
};

}  // namespace smartmem::core
