// Writing a custom tmem management policy against the public Policy API —
// the extension point Section VII calls out ("a framework and baseline for
// future development of more sophisticated tmem memory policies").
//
// The example policy, "deficit-weighted", allocates capacity proportionally
// to each VM's *unserved demand* (failed puts) over a sliding window the
// policy keeps itself, with a minimum guarantee for every VM. It is wired
// into a VirtualNode manually, bypassing PolicySpec, to show that
// third-party policies need no changes to the library.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>

#include "core/smartmem.hpp"

using namespace smartmem;

namespace {

class DeficitWeightedPolicy final : public mm::Policy {
 public:
  explicit DeficitWeightedPolicy(std::size_t window = 5, double floor = 0.15)
      : window_(window), floor_(floor) {}

  std::string name() const override { return "deficit-weighted"; }

  hyper::MmOut compute(const hyper::MemStats& stats,
                       const mm::PolicyContext& ctx) override {
    // Sum each VM's failed puts over the last `window_` samples, this one
    // included.
    std::vector<double> deficit(stats.vm.size(), 0.0);
    double deficit_sum = 0.0;
    for (std::size_t i = 0; i < stats.vm.size(); ++i) {
      const hyper::VmMemStats& vm = stats.vm[i];
      std::deque<std::uint64_t>& failed = failed_puts_[vm.vm_id];
      failed.push_back(vm.puts_total - vm.puts_succ);
      if (failed.size() > window_) failed.pop_front();
      for (const std::uint64_t f : failed) {
        deficit[i] += static_cast<double>(f);
      }
      deficit_sum += deficit[i];
    }

    const double total = static_cast<double>(ctx.total_tmem);
    const double guaranteed = total * floor_ / static_cast<double>(
                                                   std::max<std::size_t>(
                                                       stats.vm.size(), 1));
    const double demand_pool =
        total - guaranteed * static_cast<double>(stats.vm.size());

    hyper::MmOut out;
    out.reserve(stats.vm.size());
    for (std::size_t i = 0; i < stats.vm.size(); ++i) {
      double target = guaranteed;
      if (deficit_sum > 0) {
        target += demand_pool * deficit[i] / deficit_sum;
      } else {
        target += demand_pool / static_cast<double>(stats.vm.size());
      }
      out.push_back({stats.vm[i].vm_id, static_cast<PageCount>(target)});
    }
    return out;
  }

 private:
  std::size_t window_;
  double floor_;
  // Per-VM failed puts of the last `window_` samples, oldest first.
  std::map<VmId, std::deque<std::uint64_t>> failed_puts_;
};

workloads::WorkloadPtr make_workload(PageCount ram_pages) {
  workloads::InMemoryAnalyticsConfig cfg;
  cfg.dataset_pages = 0;
  cfg.working_set_pages =
      static_cast<PageCount>(static_cast<double>(ram_pages) * 1.3);
  cfg.iterations = 4;
  cfg.per_touch_compute = 4 * kMicrosecond;
  return std::make_unique<workloads::InMemoryAnalytics>(cfg);
}

}  // namespace

int main() {
  core::NodeConfig cfg;
  cfg.tmem_pages = pages_from_mib(96);
  // Managed mode without a built-in policy: pick any managed spec so the
  // node wires a MemoryManager + TKM, then swap in the custom policy by
  // building the manager by hand.
  cfg.policy = mm::PolicySpec::static_alloc();

  core::VirtualNode node(cfg);
  for (int i = 1; i <= 3; ++i) {
    core::VmSpec vm;
    vm.name = "VM" + std::to_string(i);
    vm.ram_pages = pages_from_mib(128);
    vm.workload = make_workload(vm.ram_pages);
    vm.start_delay = static_cast<SimTime>(i - 1) * kSecond;
    node.add_vm(std::move(vm));
  }

  // Replace the MM's policy with the custom one. The Policy API is the
  // public extension point; MemoryManager, TKM and hypervisor stay stock.
  mm::MemoryManager custom_mm(std::make_unique<DeficitWeightedPolicy>(),
                              cfg.tmem_pages);
  custom_mm.set_sender([&node](const hyper::TargetsMsg& msg) {
    node.tkm()->submit_targets(msg);
  });
  // node.start() wires the built-in manager to the TKM; re-registering the
  // sink afterwards redirects the statistics stream to the custom MM (the
  // built-in manager then simply never hears another sample).
  node.start();
  node.tkm()->start(
      [&custom_mm](const hyper::MemStats& s) { custom_mm.on_stats(s); });
  node.run();

  std::printf("custom policy '%s' finished at %.2fs\n",
              custom_mm.policy().name().c_str(),
              to_seconds(node.simulator().now()));
  for (VmId id : node.vm_ids()) {
    const auto& d = node.hypervisor().vm_data(id);
    std::printf("  %s: target %llu pages, failed puts %llu, runtime %.2fs\n",
                node.vm_name(id).c_str(),
                static_cast<unsigned long long>(node.hypervisor().target(id)),
                static_cast<unsigned long long>(d.cumul_puts_failed),
                to_seconds(node.runner(id).finish_time() -
                           node.runner(id).start_time()));
  }
  std::printf("targets sent by the custom MM: %llu\n",
              static_cast<unsigned long long>(custom_mm.targets_sent()));
  return 0;
}
