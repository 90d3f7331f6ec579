// Extension bench: the paper's §VII frames SmarTmem as "a framework and
// baseline for future development of more sophisticated tmem memory
// policies". This bench races the paper's smart-alloc against the two
// extension policies shipped with the library — swap-rate proportional
// sharing (vMCA-style) and working-set-size estimation (Zhao-et-al-style) —
// on the staggered scenarios where adaptiveness matters most.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts =
      bench::parse_options(argc, argv, {"--scale", "--reps", "--seed"});

  for (auto* scenario : {&core::scenario2, &core::scenario3}) {
    const core::ScenarioSpec spec = scenario(opts.scale);
    std::printf("=== extension policies on %s ===\n", spec.name.c_str());
    std::printf("%-16s %10s %10s %10s %14s %14s\n", "policy", "VM1 (s)",
                "VM2 (s)", "VM3 (s)", "failed puts", "target sends");
    for (const auto& policy :
         {mm::PolicySpec::greedy(), mm::PolicySpec::smart(4.0),
          mm::PolicySpec::swap_rate(), mm::PolicySpec::wss()}) {
      RunningStats vm_time[3];
      std::uint64_t failed = 0, sends = 0;
      for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
        auto node = core::build_node(spec, policy, opts.base_seed + rep);
        node->run(spec.deadline);
        for (VmId id : node->vm_ids()) {
          vm_time[id - 1].add(to_seconds(node->runner(id).finish_time() -
                                         node->runner(id).start_time()));
          failed += node->hypervisor().vm_data(id).cumul_puts_failed;
        }
        if (node->manager()) sends += node->manager()->targets_sent();
      }
      std::printf("%-16s %10.2f %10.2f %10.2f %14llu %14llu\n",
                  policy.label().c_str(), vm_time[0].mean(), vm_time[1].mean(),
                  vm_time[2].mean(),
                  static_cast<unsigned long long>(failed / opts.repetitions),
                  static_cast<unsigned long long>(sends / opts.repetitions));
    }
    std::printf("\n");
  }
  return 0;
}
