// Ablation: smart-alloc's target-decrease threshold (Algorithm 4 line 17).
// The paper introduces the threshold to "avoid premature target decrements
// which might cause the targets to oscillate"; this bench quantifies that.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts =
      bench::parse_options(argc, argv, {"--scale", "--reps", "--seed"});
  const core::ScenarioSpec spec = core::scenario1(opts.scale);

  std::printf("=== ablation: smart-alloc decrease threshold (scenario 1, P=0.75%%) ===\n");
  std::printf("threshold as a fraction of total tmem; 'auto' = one increment (P%%)\n\n");
  std::printf("%-12s %12s %12s %14s\n", "threshold", "mean run (s)",
              "target sends", "failed puts");

  struct Case {
    const char* name;
    double fraction;  // of total tmem; <0 = auto
  };
  for (const Case c : {Case{"0 (none)", 0.00001}, Case{"auto (P%)", -1.0},
                       Case{"2%", 0.02}, Case{"5%", 0.05}, Case{"10%", 0.10}}) {
    mm::PolicySpec policy = mm::PolicySpec::smart(0.75);
    if (c.fraction > 0) {
      policy.smart_config.threshold_pages = static_cast<PageCount>(
          c.fraction * static_cast<double>(spec.tmem_pages));
      if (policy.smart_config.threshold_pages == 0) {
        policy.smart_config.threshold_pages = 1;
      }
    }
    RunningStats run_time;
    std::uint64_t sends = 0, failed = 0;
    for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
      auto node = core::build_node(spec, policy, opts.base_seed + rep);
      node->run(spec.deadline);
      for (VmId id : node->vm_ids()) {
        run_time.add(to_seconds(node->runner(id).finish_time() -
                                node->runner(id).start_time()));
        failed += node->hypervisor().vm_data(id).cumul_puts_failed;
      }
      sends += node->manager()->targets_sent();
    }
    std::printf("%-12s %12.2f %12llu %14llu\n", c.name, run_time.mean(),
                static_cast<unsigned long long>(sends / opts.repetitions),
                static_cast<unsigned long long>(failed / opts.repetitions));
  }
  return 0;
}
