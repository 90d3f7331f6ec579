// Ablation: the hypervisor's slow background reclaim ("the hypervisor can
// reclaim tmem pages from a VM very slowly"). It only acts on *ephemeral*
// (cleancache) pages of VMs sitting above their target, so the bench needs
// (a) cleancache on, and (b) targets that drop below established usage:
// Scenario 3 under smart-alloc with a large P provides that — targets of
// the early VMs shrink when VM3 arrives and when their own slack grows,
// leaving cleancache pages stranded above the new target.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts =
      bench::parse_options(argc, argv, {"--scale", "--reps", "--seed"});
  const core::ScenarioSpec spec = core::scenario3(opts.scale);

  std::printf("=== ablation: hypervisor slow reclaim (scenario 3 + cleancache, "
              "smart P=6%%) ===\n\n");
  std::printf("%-18s %12s %16s %16s\n", "reclaim rate", "mean run (s)",
              "pages reclaimed", "cleancache hits");

  struct Case {
    const char* name;
    PageCount pages_per_tick;  // 0 = off
  };
  for (const Case c : {Case{"off", 0}, Case{"128/tick", 128},
                       Case{"512/tick", 512}, Case{"4096/tick", 4096}}) {
    core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
    cfg.cleancache = true;
    cfg.slow_reclaim_pages_per_tick = c.pages_per_tick;
    RunningStats run_time;
    std::uint64_t reclaimed = 0, cc_hits = 0;
    for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
      auto node = core::build_node(spec, mm::PolicySpec::smart(6.0),
                                   opts.base_seed + rep, &cfg);
      node->run(spec.deadline);
      for (VmId id : node->vm_ids()) {
        run_time.add(to_seconds(node->runner(id).finish_time() -
                                node->runner(id).start_time()));
        reclaimed += node->hypervisor().vm_data(id).pages_reclaimed;
        cc_hits += node->kernel(id).stats().cleancache_hits;
      }
    }
    std::printf("%-18s %12.2f %16llu %16llu\n", c.name, run_time.mean(),
                static_cast<unsigned long long>(reclaimed / opts.repetitions),
                static_cast<unsigned long long>(cc_hits / opts.repetitions));
  }
  return 0;
}
