// Ablation: swap read-ahead cluster size. Clustering mostly benefits the
// *disk* path, so it rescues the no-tmem baseline on sequential workloads
// (usemem) while tmem configurations barely notice — i.e. tmem's advantage
// in the paper's figures already includes a kernel that does read-ahead.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts =
      bench::parse_options(argc, argv, {"--scale", "--reps", "--seed"});
  const core::ScenarioSpec spec = core::usemem_scenario(opts.scale);

  std::printf("=== ablation: swap read-ahead cluster (usemem) ===\n\n");
  std::printf("%-10s %14s %14s %18s\n", "cluster", "no-tmem (s)",
              "greedy (s)", "readahead pages");

  for (const std::uint32_t cluster : {1u, 2u, 4u, 8u, 16u}) {
    core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
    cfg.swap_readahead = cluster;
    RunningStats no_tmem_end, greedy_end;
    std::uint64_t ra_pages = 0;
    for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
      {
        auto node = core::build_node(spec, mm::PolicySpec::no_tmem(),
                                     opts.base_seed + rep, &cfg);
        no_tmem_end.add(to_seconds(node->run(spec.deadline)));
        for (VmId id : node->vm_ids()) {
          ra_pages += node->kernel(id).stats().swapins_readahead;
        }
      }
      {
        auto node = core::build_node(spec, mm::PolicySpec::greedy(),
                                     opts.base_seed + rep, &cfg);
        greedy_end.add(to_seconds(node->run(spec.deadline)));
      }
    }
    std::printf("%-10u %14.2f %14.2f %18llu\n", cluster, no_tmem_end.mean(),
                greedy_end.mean(),
                static_cast<unsigned long long>(ra_pages / opts.repetitions));
  }
  return 0;
}
