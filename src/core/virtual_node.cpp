#include "core/virtual_node.hpp"

#include <stdexcept>

#include "common/logging.hpp"

namespace smartmem::core {

namespace {

/// Physical cores the vCPUs compete for: the paper's testbed runs its 3
/// single-vCPU VMs on 2 cores.
constexpr unsigned kPhysicalCores = 2;

SimTime node_sim_clock(const void* ctx) {
  return static_cast<const sim::Simulator*>(ctx)->now();
}

/// Stamps this thread's log lines with the node's simulated time for the
/// guard's lifetime (run() installs one; parallel workers each get their
/// own thread-local clock).
class LogClockGuard {
 public:
  explicit LogClockGuard(const sim::Simulator& sim) {
    log::set_sim_clock(&node_sim_clock, &sim);
  }
  ~LogClockGuard() { log::set_sim_clock(nullptr, nullptr); }
  LogClockGuard(const LogClockGuard&) = delete;
  LogClockGuard& operator=(const LogClockGuard&) = delete;
};

}  // namespace

VirtualNode::VirtualNode(NodeConfig config)
    : config_(std::move(config)),
      cpu_pool_(kPhysicalCores),
      disk_(sim_, config_.disk) {
  if (config_.obs.any()) {
    observer_ = std::make_unique<obs::Observer>(config_.obs);
  }
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = config_.tmem_pages;
  hcfg.nvm_tmem_pages = config_.nvm_tmem_pages;
  hcfg.sample_interval = config_.sample_interval;
  hcfg.slow_reclaim_pages_per_tick = config_.slow_reclaim_pages_per_tick;
  hcfg.zero_page_dedup = config_.zero_page_dedup;
  hcfg.compressed.capacity_bytes = config_.compressed_pool_bytes;
  hcfg.compressed.model = config_.compressibility;
  hcfg.compressed_evict = config_.compressed_evict_demote
                              ? tmem::CompressedEvictMode::kDemote
                              : tmem::CompressedEvictMode::kDrop;
  hcfg.capacity_units = config_.capacity_units;
  // Managed policies need a grounded starting target; greedy (and no-tmem)
  // reproduce Xen's unlimited default.
  hcfg.default_target_mode = config_.policy.needs_manager()
                                 ? hyper::DefaultTargetMode::kEqualShare
                                 : hyper::DefaultTargetMode::kUnlimited;
  hyp_ = std::make_unique<hyper::Hypervisor>(sim_, hcfg);

  if (config_.policy.needs_manager()) {
    mm::ManagerConfig mcfg;
    mcfg.sample_interval = config_.sample_interval;
    mcfg.suppress_unchanged = config_.mm_suppress_unchanged;
    mcfg.delta = config_.comm.delta;
    // Fallback total for samples that carry none, in the node's capacity
    // units (the hypervisor's snapshots always carry the live value).
    const PageCount mm_total =
        config_.capacity_units == CapacityUnits::kBytes
            ? (config_.tmem_pages + config_.nvm_tmem_pages) * kPageSize +
                  config_.compressed_pool_bytes
            : config_.tmem_pages + config_.nvm_tmem_pages +
                  config_.compressed_pool_bytes / kPageSize;
    manager_ = std::make_unique<mm::MemoryManager>(
        mm::make_policy(config_.policy), mm_total, mcfg);
    manager_->set_clock([this] { return sim_.now(); });
    tkm_ = std::make_unique<guest::Tkm>(sim_, *hyp_, config_.comm);
    manager_->set_sender(
        [this](const hyper::TargetsMsg& msg) { tkm_->submit_targets(msg); });
  }
}

VmId VirtualNode::add_vm(VmSpec spec) {
  if (started_) {
    throw std::logic_error("VirtualNode: add_vm after start");
  }
  const VmId id = static_cast<VmId>(vms_.size()) + 1;
  hyp_->register_vm(id);

  VmSlot vm;
  vm.name = spec.name.empty() ? ("VM" + std::to_string(id)) : spec.name;
  vm.start_delay = spec.start_delay;
  vm.manual_start = spec.manual_start;

  guest::GuestConfig gcfg;
  gcfg.vm = id;
  gcfg.ram_pages = spec.ram_pages;
  gcfg.swap_slots = spec.swap_pages != 0 ? spec.swap_pages : 2 * spec.ram_pages;
  const bool tmem_on = config_.policy.kind != mm::PolicyKind::kNoTmem;
  gcfg.frontswap_enabled = tmem_on;
  gcfg.frontswap_exclusive_gets = config_.frontswap_exclusive_gets;
  gcfg.cleancache_enabled = tmem_on && config_.cleancache;
  gcfg.zero_write_period = config_.zero_write_period;
  gcfg.swap_readahead = config_.swap_readahead;
  gcfg.costs = config_.costs;
  vm.kernel = std::make_unique<guest::GuestKernel>(sim_, *hyp_, disk_, gcfg);

  VcpuConfig vcfg;
  vcfg.cpu = &cpu_pool_;
  vcfg.rng_seed = spec.seed != 0 ? spec.seed : 0x5157ULL * id + 11;
  vm.runner = std::make_unique<VcpuRunner>(sim_, *vm.kernel,
                                           std::move(spec.workload), vcfg);
  vm.runner->set_marker_hook([this, id](const std::string& label,
                                        SimTime when) {
    if (observer_) {
      obs::TraceRecorder* tr = observer_->trace();
      if (tr != nullptr && tr->enabled(obs::kCatWorkload)) {
        tr->instant(obs::kCatWorkload, workload_track_, tr->intern(label),
                    when, {{"vm", static_cast<double>(id)}});
      }
    }
    if (marker_hook_) marker_hook_(id, label, when);
  });

  vms_.push_back(std::move(vm));
  return id;
}

VirtualNode::VmSlot& VirtualNode::slot(VmId vm) {
  if (vm == 0 || vm > vms_.size()) {
    throw std::out_of_range("VirtualNode: bad VmId");
  }
  return vms_[vm - 1];
}

const VirtualNode::VmSlot& VirtualNode::slot(VmId vm) const {
  if (vm == 0 || vm > vms_.size()) {
    throw std::out_of_range("VirtualNode: bad VmId");
  }
  return vms_[vm - 1];
}

std::vector<VmId> VirtualNode::vm_ids() const {
  std::vector<VmId> ids;
  ids.reserve(vms_.size());
  for (VmId id = 1; id <= vms_.size(); ++id) ids.push_back(id);
  return ids;
}

void VirtualNode::record_usage() {
  const SimTime now = sim_.now();
  for (VmId id = 1; id <= vms_.size(); ++id) {
    const auto& name = vms_[id - 1].name;
    usage_.series(name).push(
        now, static_cast<double>(hyp_->tmem_used(id)));
    const PageCount target = hyp_->target(id);
    usage_.series("target-" + name)
        .push(now, target == kUnlimitedTarget
                       ? static_cast<double>(config_.tmem_pages)
                       : static_cast<double>(target));
  }
  usage_.series("free").push(now, static_cast<double>(hyp_->free_tmem()));
}

void VirtualNode::wire_observability() {
  obs::TraceRecorder* trace = observer_->trace();
  obs::Registry* registry = observer_->registry();

  if (trace != nullptr) {
    workload_track_ = trace->register_track("workload", "markers");
    hyp_->set_trace(trace);
    for (VmId id = 1; id <= vms_.size(); ++id) {
      vms_[id - 1].runner->set_trace(
          trace, trace->register_track("guest", vms_[id - 1].name));
    }
  }
  if (tkm_) tkm_->attach_obs(trace, registry);
  if (manager_) {
    manager_->attach_obs(trace, observer_->audit());
    if (registry != nullptr) manager_->register_metrics(*registry);
  }
  if (registry != nullptr) {
    hyp_->register_metrics(*registry);
    registry->add_counter("sim.executed_events", [this] {
      return static_cast<double>(sim_.executed_events());
    });
    registry->add_counter("sim.cancelled_events", [this] {
      return static_cast<double>(sim_.cancelled_events());
    });
    registry->add_gauge("sim.pending_events", [this] {
      return static_cast<double>(sim_.pending_events());
    });
    registry->add_gauge("sim.peak_pending_events", [this] {
      return static_cast<double>(sim_.peak_pending_events());
    });
    // Snapshot every sampling interval; these events only read state, so
    // the simulation's own event interleaving is unaffected.
    registry->snapshot(sim_.now());
    metrics_sampler_ = sim_.schedule_periodic(
        config_.sample_interval,
        [this] { observer_->registry()->snapshot(sim_.now()); });
  }
}

void VirtualNode::start() {
  if (started_) {
    throw std::logic_error("VirtualNode: started twice");
  }
  started_ = true;

  if (observer_) wire_observability();

  if (manager_) {
    if (stats_tap_) tkm_->set_virq_tap(stats_tap_);
    tkm_->start(
        [this](const hyper::MemStats& stats) { manager_->on_stats(stats); });
  } else if (stats_tap_) {
    hyp_->start_sampling(
        [this](const hyper::MemStats& stats) { stats_tap_(stats); });
  } else {
    // No MM: still run the sampler so snapshots/benches see statistics and
    // interval counters reset, exactly as the hypervisor does under greedy.
    hyp_->start_sampling(nullptr);
  }

  if (config_.usage_sample_interval > 0) {
    record_usage();
    usage_sampler_ = sim_.schedule_periodic(config_.usage_sample_interval,
                                            [this] { record_usage(); });
  }

  for (VmId id = 1; id <= vms_.size(); ++id) {
    VmSlot& vm = vms_[id - 1];
    if (!vm.manual_start) {
      vm.runner->start(sim_.now() + vm.start_delay);
    }
  }
}

void VirtualNode::start_vm(VmId vm) { start_vm_at(vm, sim_.now()); }

void VirtualNode::start_vm_at(VmId vm, SimTime at) {
  VmSlot& s = slot(vm);
  if (!s.runner->started()) {
    s.runner->start(at);
  }
}

void VirtualNode::stop_all() {
  for (auto& vm : vms_) {
    if (vm.runner->finished()) continue;
    // Not-yet-started automatic VMs also get the flag so their (pending)
    // first batch finishes immediately; unstarted manual VMs never run and
    // do not block completion.
    if (vm.runner->started() || !vm.manual_start) {
      vm.runner->request_stop();
    }
  }
}

bool VirtualNode::all_done() const {
  for (const auto& vm : vms_) {
    // A manual VM that never started does not block completion; every other
    // VM must have finished (or been stopped).
    if (!vm.runner->started()) {
      if (!vm.manual_start) return false;
      continue;
    }
    if (!vm.runner->finished()) return false;
  }
  return true;
}

SimTime VirtualNode::run(SimTime deadline) {
  LogClockGuard log_clock(sim_);
  if (!started_) start();
  while (!all_done() && sim_.now() < deadline) {
    if (!sim_.step()) break;
  }
  if (!all_done()) {
    log::warn(log::Component::kCore,
              "run() hit the deadline at %.1fs with unfinished VMs",
              to_seconds(sim_.now()));
    stop_all();
    // Let the stop requests land so finish times are recorded.
    while (!all_done() && sim_.step()) {
    }
  }
  finish();
  return sim_.now();
}

void VirtualNode::finish() {
  if (finished_) return;
  finished_ = true;
  // Final usage sample so the series cover the full run.
  if (config_.usage_sample_interval > 0) record_usage();
  usage_sampler_.cancel();
  metrics_sampler_.cancel();
  // Quiesce the control plane: closing the TKM's channels also cancels any
  // in-flight stats/target deliveries, so nothing lands after finish()
  // returns.
  if (tkm_) {
    tkm_->stop();
  } else {
    hyp_->stop_sampling();
  }
  if (observer_) {
    // Final snapshot so the metrics cover the full run, then write every
    // pillar with a configured output path.
    if (observer_->registry() != nullptr) {
      observer_->registry()->snapshot(sim_.now());
    }
    std::string err;
    if (!observer_->export_all(&err)) {
      log::error(log::Component::kObs, "export failed: %s", err.c_str());
    }
  }
}

}  // namespace smartmem::core
