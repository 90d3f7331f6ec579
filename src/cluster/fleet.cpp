#include "cluster/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cluster/experiment.hpp"
#include "common/strfmt.hpp"
#include "common/units.hpp"
#include "core/scenario.hpp"
#include "mm/policy_factory.hpp"

namespace smartmem::cluster {

namespace {

/// Smart-alloc P (%) of the per-VM policy every node runs internally.
constexpr double kNodeSmartP = 25.0;

/// Global decision interval as a multiple of the node sampling interval.
constexpr double kGlobalIntervalX = 2.0;

PageCount scaled_mib(double mib, double scale) {
  return pages_from_mib(static_cast<std::uint64_t>(std::llround(mib * scale)));
}

/// Application-usable RAM after the kernel's share (same convention as the
/// scenario library).
PageCount usable(PageCount ram_pages) { return ram_pages - ram_pages / 8; }

/// One node's scenario: vms_per_node fleet tenants whose global rank is
/// node * vms_per_node + vm. Working sets exceed usable RAM by 25%, so a
/// tenant's phase loop spills into tmem in proportion to its intensity;
/// node tmem covers only part of the aggregate overflow, so hot nodes fail
/// puts while cold nodes idle — the gradient the rack policies work on.
core::ScenarioSpec fleet_node_scenario(const FleetExperimentConfig& cfg,
                                       std::size_t node,
                                       const workloads::FleetWorkloadConfig& fw) {
  core::ScenarioSpec spec;
  spec.name = "fleet";
  spec.description = strfmt("fleet node %zu: %zu tenants, skew=%.2f, mix=%s",
                            node, cfg.vms_per_node, cfg.skew,
                            workloads::to_string(cfg.mix));
  spec.tmem_pages =
      scaled_mib(16.0 * static_cast<double>(cfg.vms_per_node), cfg.scale);
  // Lending-heavy cold nodes carry deliberately small tmem: the donor pool
  // is then scarce against the two hot borrowers' combined appetite, so
  // credit runs out in some windows and the even split decides who eats
  // the shortfall.
  if (cfg.lending_heavy && node >= 2) spec.tmem_pages /= 4;
  // Arrivals are scheduled explicitly per tenant; no extra jitter on top.
  spec.start_jitter_max = 0;
  spec.scale = cfg.scale;
  spec.deadline = 3600 * kSecond;
  for (std::size_t v = 0; v < cfg.vms_per_node; ++v) {
    const std::size_t rank = node * cfg.vms_per_node + v;
    core::ScenarioVm vm;
    vm.name = strfmt("VM%zu", v + 1);
    vm.ram_pages = scaled_mib(96, cfg.scale);
    vm.start_delay = workloads::fleet_arrival(fw, rank);
    // Lending-heavy geometry splits the fleet into two hot nodes whose
    // tenants spill far past RAM + tmem (quota demand above physical) and
    // cold nodes whose tenants fit in RAM outright (zero tmem demand, so
    // their quota shrinks and their frames become lendable). Two borrowers
    // with unequal spill, not one, so the credit split has an actual
    // allocation decision to make.
    const double ws_x = !cfg.lending_heavy ? 1.25
                        : node == 0        ? 1.6
                        : node == 1        ? 1.4
                                           : 0.9;
    vm.make_workload = [fw, rank, ws_x,
                        ram = vm.ram_pages]() -> workloads::WorkloadPtr {
      workloads::FleetWorkloadConfig tenant = fw;
      tenant.working_set =
          static_cast<PageCount>(static_cast<double>(usable(ram)) * ws_x);
      tenant.touches_per_phase = 3 * tenant.working_set;
      return workloads::make_fleet_tenant(tenant, rank);
    };
    spec.vms.push_back(std::move(vm));
  }
  return spec;
}

}  // namespace

FleetRunResult run_fleet_scenario(const FleetExperimentConfig& cfg) {
  if (cfg.sim_threads != 1) {
    throw std::invalid_argument(
        "run_fleet_scenario: sim_threads must be 1 (the engine runs every "
        "window on the calling thread)");
  }
  core::NodeConfig base = core::scaled_node_defaults(cfg.scale);
  base.comm.delta.resync_every = cfg.resync_every;

  workloads::FleetWorkloadConfig fw;
  fw.tenants = cfg.nodes * cfg.vms_per_node;
  fw.skew = cfg.skew;
  fw.mix = cfg.mix;
  fw.phases = 10;
  fw.zipf_s = 0.9;
  fw.per_touch_compute = 2 * kMicrosecond;
  // Think time spans several sampling intervals: a cold tenant's touch
  // burst lands in one interval out of ~8, so its stat entries sit
  // unchanged the rest of the time — the idle steady state the delta
  // encoding is built to exploit. Off the integer grid so bursts do not
  // phase-lock onto interval boundaries.
  fw.think_time = static_cast<SimTime>(
      static_cast<double>(base.sample_interval) * 7.5);
  // Spread arrivals over ~8 sampling intervals: enough that the fleet's
  // demand spikes never phase-lock onto one interval, short against the
  // phase loop so the steady state dominates the run.
  fw.arrival_window = 8 * base.sample_interval;

  ClusterConfig ccfg;
  ccfg.topology.node_comm = base.comm;
  const auto hop = static_cast<SimTime>(
      5.0 * static_cast<double>(kMillisecond) * cfg.scale);
  ccfg.topology.internode_up.latency = hop;
  ccfg.topology.internode_down.latency = hop;
  ccfg.global_policy = cfg.global_policy;
  ccfg.global_interval = static_cast<SimTime>(
      kGlobalIntervalX * static_cast<double>(base.sample_interval));
  ccfg.lending = cfg.lending;
  ccfg.lending_async = cfg.lending_async;
  // The lending hops deliberately do NOT scale with cfg.scale: a page copy
  // over the rack's data fabric costs the same at any scenario scale.
  // lend_rtt_x is the explicit wire-speed axis for the ablation.
  if (cfg.lend_rtt_x != 1.0) {
    ccfg.topology.internode_lend_req.scale_times(cfg.lend_rtt_x);
    ccfg.topology.internode_lend_resp.scale_times(cfg.lend_rtt_x);
  }
  ccfg.topology.internode_lend_req.faults = cfg.lend_fault;
  ccfg.topology.internode_lend_resp.faults = cfg.lend_fault;
  ccfg.delta.resync_every = cfg.resync_every;
  ccfg.profile = cfg.profile;
  ccfg.obs = cfg.obs;

  Cluster cluster(std::move(ccfg));
  SimTime deadline = 0;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    const core::ScenarioSpec spec = fleet_node_scenario(cfg, i, fw);
    core::NodeConfig overrides = base;
    overrides.comm = cluster.config().topology.node_comm_for(i);
    const std::uint64_t ns = node_seed(cfg.seed, i);
    const std::size_t idx = cluster.add_node(
        core::node_config_for(spec, mm::PolicySpec::smart(kNodeSmartP), ns,
                              &overrides));
    core::populate_node(cluster.node(idx), spec, ns);
    deadline = std::max(deadline, spec.deadline);
  }

  if (cfg.deadline_cap > 0) deadline = std::min(deadline, cfg.deadline_cap);
  const SimTime end = cluster.run(deadline);

  FleetRunResult out;
  out.makespan_s = to_seconds(end);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    core::VirtualNode& n = cluster.node(i);
    const hyper::Hypervisor& hyp = n.hypervisor();
    for (VmId vm : n.vm_ids()) {
      const hyper::VmData& vd = hyp.vm_data(vm);
      out.aggregate_failed_puts += vd.cumul_puts_failed;
      out.puts_total += vd.cumul_puts_total;
      out.puts_succ += vd.cumul_puts_succ;
    }
    if (const guest::Tkm* tkm = n.tkm()) {
      out.node_control_bytes += tkm->uplink().stats().payload_bytes;
      out.node_control_bytes += tkm->downlink().stats().payload_bytes;
      out.stats_full_sends += tkm->stats_full_sends();
    }
    if (const mm::MemoryManager* mgr = n.manager()) {
      out.mm_samples += mgr->samples_seen();
      out.mm_targets_sent += mgr->targets_sent();
      out.mm_decide_ns += mgr->decide_ns_total();
      out.mm_decides += mgr->decide_count();
      out.targets_full_sends += mgr->targets_full_sends();
    }
  }
  out.rack_control_bytes = cluster.rack_control_bytes();
  out.rollups_suppressed = cluster.rollups_suppressed();
  if (const GlobalManager* gm = cluster.global_manager()) {
    out.gm_decisions = gm->decisions();
    out.gm_clean_decides = gm->clean_decides();
    out.quotas_sent = gm->quotas_sent();
    out.quota_sends_skipped = gm->quota_sends_skipped();
  }
  if (const LendingBroker* broker = cluster.broker()) {
    out.borrow_placements = broker->borrow_placements();
    out.lending_failed_placements = broker->failed_placements();
    out.borrow_hits = broker->borrow_hits();
    out.borrow_misses = broker->borrow_misses();
    out.lending_recalls = broker->recalls();
    out.lending_failed_replacements = broker->failed_replacements();
    const LendFabric& fab = broker->fabric();
    const LendFabricStats t = fab.totals();
    out.fabric_requests = t.requests;
    out.fabric_retries = t.retries;
    out.fabric_timeouts = t.timeouts;
    out.fabric_give_ups = t.give_ups;
    out.fabric_get_fallbacks = t.get_fallbacks;
    out.put_rtt_mean_us = t.put_rtt_us.count() > 0 ? t.put_rtt_us.mean() : 0.0;
    out.get_rtt_mean_us = t.get_rtt_us.count() > 0 ? t.get_rtt_us.mean() : 0.0;
    out.get_rtt_count = t.get_rtt_us.count();
    for (std::size_t b = 0; b < cfg.nodes; ++b) {
      const BorrowCache& c = fab.cache(static_cast<NodeId>(b));
      out.cache_hits += c.hits();
      out.cache_misses += c.misses();
      out.cache_invalidations += c.invalidations();
    }
  }
  if (const sim::EngineProfiler* prof = cluster.profiler()) {
    // Copy the self-profile out before the cluster (and with it the
    // profiler's storage) dies. Wall-clock territory from here on.
    const sim::EngineProfiler::Report rep = prof->report();
    out.engine_windows = rep.windows;
    out.engine_idle_skip_s = to_seconds(rep.idle_skip);
    out.engine_window_wall_ms =
        static_cast<double>(rep.window_wall_ns) / 1e6;
    out.engine_drain_ms = static_cast<double>(rep.drain_ns) / 1e6;
    out.engine_hook_ms = static_cast<double>(rep.hook_ns) / 1e6;
    if (const auto* b = rep.bottleneck_shard()) {
      out.bottleneck = b->label;
    }
    out.profile.reserve(rep.shards.size());
    for (const sim::EngineProfiler::ShardProfile* s : rep.shards) {
      FleetRunResult::ShardProfileRow row;
      row.label = s->label;
      row.busy_ms = static_cast<double>(s->busy_ns) / 1e6;
      row.events = s->events;
      row.injections_out = s->injections_out;
      row.injections_in = s->injections_in;
      row.critical_windows = s->critical_windows;
      out.profile.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace smartmem::cluster
