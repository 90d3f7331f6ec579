// Ablation: frontswap get semantics.
//
// With non-exclusive gets (the paper's Linux 3.19 stack) a swapped-in page
// keeps its tmem copy until re-dirtied, so tmem capacity stays pinned to
// whoever claimed it first — that is the sticky hoarding visible in the
// paper's Figure 4(a)/6(a). With exclusive (destructive) gets the pool
// turns over page by page and greedy becomes nearly work-conserving. This
// bench shows both regimes on Scenario 2.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts =
      bench::parse_options(argc, argv, {"--scale", "--reps", "--seed"});
  const core::ScenarioSpec spec = core::scenario2(opts.scale);

  std::printf("=== ablation: exclusive vs non-exclusive frontswap gets "
              "(scenario 2) ===\n\n");
  std::printf("%-14s %-14s %10s %10s %10s %14s\n", "gets", "policy", "VM1 (s)",
              "VM2 (s)", "VM3 (s)", "disk swapins");

  for (const bool exclusive : {true, false}) {
    for (const auto& policy :
         {mm::PolicySpec::greedy(), mm::PolicySpec::smart(6.0)}) {
      core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
      cfg.frontswap_exclusive_gets = exclusive;
      RunningStats vm_time[3];
      std::uint64_t disk_swapins = 0;
      for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
        auto node =
            core::build_node(spec, policy, opts.base_seed + rep, &cfg);
        node->run(spec.deadline);
        for (VmId id : node->vm_ids()) {
          vm_time[id - 1].add(to_seconds(node->runner(id).finish_time() -
                                         node->runner(id).start_time()));
          disk_swapins += node->kernel(id).stats().swapins_disk;
        }
      }
      std::printf("%-14s %-14s %10.2f %10.2f %10.2f %14llu\n",
                  exclusive ? "exclusive" : "non-exclusive",
                  policy.label().c_str(), vm_time[0].mean(), vm_time[1].mean(),
                  vm_time[2].mean(),
                  static_cast<unsigned long long>(disk_swapins /
                                                  opts.repetitions));
    }
  }
  std::printf(
      "\nNon-exclusive gets pin tmem to whoever put first: total disk\n"
      "traffic explodes, and depending on launch jitter one early VM can\n"
      "hoard the whole pool outright (the paper's Figure 4a/6a pathology).\n");
  return 0;
}
