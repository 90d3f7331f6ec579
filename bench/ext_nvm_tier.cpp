// Extension bench (Ex-Tmem, Venkatesan et al. [26] — the heterogeneous-
// memory direction the paper's conclusions point at): back overflow tmem
// capacity with NVM. The question the original Ex-Tmem paper asks is
// whether slower-but-big NVM in front of the disk pays off; here we also
// show that SmarTmem's policies transparently manage the combined capacity.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts =
      bench::parse_options(argc, argv, {"--scale", "--reps", "--seed"});
  const core::ScenarioSpec spec = core::scenario1(opts.scale);

  std::printf("=== extension: Ex-Tmem NVM tier (scenario 1, smart P=0.75%%) ===\n");
  std::printf("DRAM/NVM sizes below are the unscaled equivalents\n\n");
  std::printf("%-22s %12s %14s %14s\n", "configuration", "mean run (s)",
              "disk swapins", "nvm pages");

  struct Case {
    const char* name;
    double dram_fraction;  // of the scenario's tmem size
    double nvm_fraction;
  };
  for (const Case c : {Case{"DRAM 1G (paper)", 1.0, 0.0},
                       Case{"DRAM 512M", 0.5, 0.0},
                       Case{"DRAM 512M + NVM 1G", 0.5, 1.0},
                       Case{"DRAM 512M + NVM 2G", 0.5, 2.0},
                       Case{"DRAM 1G + NVM 1G", 1.0, 1.0}}) {
    core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
    // build_node overwrites tmem_pages from the scenario; scale it here by
    // adjusting a copy of the spec instead.
    core::ScenarioSpec scaled = spec;
    scaled.tmem_pages = static_cast<PageCount>(
        static_cast<double>(spec.tmem_pages) * c.dram_fraction);
    cfg.nvm_tmem_pages = static_cast<PageCount>(
        static_cast<double>(spec.tmem_pages) * c.nvm_fraction);

    RunningStats run_time;
    std::uint64_t disk_swapins = 0;
    PageCount nvm_used_peak = 0;
    for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
      auto node = core::build_node(scaled, mm::PolicySpec::smart(0.75),
                                   opts.base_seed + rep, &cfg);
      node->run(scaled.deadline);
      for (VmId id : node->vm_ids()) {
        run_time.add(to_seconds(node->runner(id).finish_time() -
                                node->runner(id).start_time()));
        disk_swapins += node->kernel(id).stats().swapins_disk;
      }
      nvm_used_peak = std::max(
          nvm_used_peak, node->hypervisor().store().stats().nvm_peak_used);
    }
    std::printf("%-22s %12.2f %14llu %14llu\n", c.name, run_time.mean(),
                static_cast<unsigned long long>(disk_swapins / opts.repetitions),
                static_cast<unsigned long long>(nvm_used_peak));
  }
  std::printf("\nNVM absorbs the overflow that a smaller DRAM pool would\n"
              "send to disk, at a fraction of DRAM's cost per byte.\n");
  return 0;
}
