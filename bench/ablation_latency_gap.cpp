// Ablation: the disk-vs-tmem latency gap. The whole value proposition of
// tmem is that a hypervisor page copy is much cheaper than a virtual-disk
// I/O; this bench sweeps the disk access latency to show where tmem's
// benefit (and the policies' leverage) comes from and where it vanishes.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts =
      bench::parse_options(argc, argv, {"--scale", "--reps", "--seed"});
  const core::ScenarioSpec spec = core::scenario1(opts.scale);

  std::printf("=== ablation: disk access latency (scenario 1) ===\n");
  std::printf("tmem put/get stays ~6us; default disk model is 150us/4KiB\n\n");
  std::printf("%-12s %14s %14s %12s\n", "disk (us)", "no-tmem (s)",
              "greedy (s)", "speedup");

  for (const double disk_us : {20.0, 75.0, 150.0, 600.0, 2400.0}) {
    core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
    cfg.disk.access_latency =
        static_cast<SimTime>(disk_us * static_cast<double>(kMicrosecond));
    RunningStats no_tmem_time, greedy_time;
    for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
      {
        auto node = core::build_node(spec, mm::PolicySpec::no_tmem(),
                                     opts.base_seed + rep, &cfg);
        node->run(spec.deadline);
        for (VmId id : node->vm_ids()) {
          no_tmem_time.add(to_seconds(node->runner(id).finish_time() -
                                      node->runner(id).start_time()));
        }
      }
      {
        auto node = core::build_node(spec, mm::PolicySpec::greedy(),
                                     opts.base_seed + rep, &cfg);
        node->run(spec.deadline);
        for (VmId id : node->vm_ids()) {
          greedy_time.add(to_seconds(node->runner(id).finish_time() -
                                     node->runner(id).start_time()));
        }
      }
    }
    std::printf("%-12.0f %14.2f %14.2f %11.2fx\n", disk_us,
                no_tmem_time.mean(), greedy_time.mean(),
                no_tmem_time.mean() / greedy_time.mean());
  }
  return 0;
}
