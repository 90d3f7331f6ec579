// Ablation: zero-page deduplication in the tmem store (an optional Xen tmem
// feature the paper's setup leaves off). Real heaps contain 15-30% all-zero
// pages (calloc'd buffers, sparse structures); dedup stores them without
// consuming a frame, effectively enlarging the pool. The effect only shows
// when capacity is scarce, so this bench quarters Scenario 1's tmem.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts =
      bench::parse_options(argc, argv, {"--scale", "--reps", "--seed"});
  core::ScenarioSpec spec = core::scenario1(opts.scale);
  // Quarter the pool so capacity is actually scarce; dedup's frameless zero
  // pages then translate directly into avoided disk traffic.
  spec.tmem_pages /= 4;

  std::printf("=== ablation: zero-page dedup in the tmem store (scenario 1, "
              "tmem/4, greedy) ===\n");
  std::printf("guests write ~20%% zero pages (calloc'd/sparse data)\n\n");
  std::printf("%-8s %12s %14s %16s\n", "dedup", "mean run (s)", "disk swapins",
              "zero pages");

  for (const bool dedup : {false, true}) {
    core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
    cfg.zero_page_dedup = dedup;
    cfg.zero_write_period = 5;  // ~20% zero pages, typical of real heaps
    RunningStats run_time;
    std::uint64_t disk_swapins = 0, zero_pages = 0;
    for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
      auto node = core::build_node(spec, mm::PolicySpec::greedy(),
                                   opts.base_seed + rep, &cfg);
      node->run(spec.deadline);
      for (VmId id : node->vm_ids()) {
        run_time.add(to_seconds(node->runner(id).finish_time() -
                                node->runner(id).start_time()));
        disk_swapins += node->kernel(id).stats().swapins_disk;
      }
      zero_pages += node->hypervisor().store().stats().zero_pages_deduped;
    }
    std::printf("%-8s %12.2f %14llu %16llu\n", dedup ? "on" : "off",
                run_time.mean(),
                static_cast<unsigned long long>(disk_swapins / opts.repetitions),
                static_cast<unsigned long long>(zero_pages / opts.repetitions));
  }
  return 0;
}
