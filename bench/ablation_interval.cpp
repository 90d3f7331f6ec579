// Ablation: the statistics sampling interval. The paper fixes it at one
// second; this bench shows how smart-alloc's adaptiveness degrades when the
// control loop runs slower (and what a faster loop would buy).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts =
      bench::parse_options(argc, argv, {"--scale", "--reps", "--seed"});
  const core::ScenarioSpec spec = core::scenario2(opts.scale);

  std::printf("=== ablation: sampling interval (scenario 2, smart P=6%%) ===\n");
  std::printf("paper value: 1.0s. Interval below is the *unscaled* value; the\n");
  std::printf("run itself uses interval*scale to stay comparable.\n\n");
  std::printf("%-12s %10s %10s %10s %12s\n", "interval", "VM1 (s)", "VM2 (s)",
              "VM3 (s)", "target sends");

  for (const double interval_s : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
    cfg.sample_interval = static_cast<SimTime>(
        interval_s * static_cast<double>(kSecond) * opts.scale);
    RunningStats vm_time[3];
    std::uint64_t sends = 0;
    for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
      auto node = core::build_node(spec, mm::PolicySpec::smart(6.0),
                                   opts.base_seed + rep, &cfg);
      node->run(spec.deadline);
      for (VmId id : node->vm_ids()) {
        vm_time[id - 1].add(to_seconds(node->runner(id).finish_time() -
                                       node->runner(id).start_time()));
      }
      sends += node->manager()->targets_sent();
    }
    std::printf("%-12.2f %10.2f %10.2f %10.2f %12llu\n", interval_s,
                vm_time[0].mean(), vm_time[1].mean(), vm_time[2].mean(),
                static_cast<unsigned long long>(sends / opts.repetitions));
  }

  // Adaptive rows: instead of a fixed cadence the MM's IntervalController
  // stretches/shrinks the interval at runtime (failed-put velocity + uplink
  // backpressure), shipping updates over the sequenced downlink. Each row
  // starts the controller from a different initial interval; 'changes'
  // counts accepted retunes and 'final' is where the cadence settled.
  std::printf("\n--- adaptive interval (controller on, same scenario) ---\n");
  std::printf("%-12s %10s %10s %10s %12s %8s %8s\n", "initial", "VM1 (s)",
              "VM2 (s)", "VM3 (s)", "target sends", "changes", "final");
  for (const double interval_s : {0.25, 1.0, 4.0}) {
    core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
    cfg.sample_interval = static_cast<SimTime>(
        interval_s * static_cast<double>(kSecond) * opts.scale);
    cfg.adaptive_interval.enabled = true;
    RunningStats vm_time[3];
    std::uint64_t sends = 0;
    std::uint64_t changes = 0;
    double final_s = 0.0;
    for (std::size_t rep = 0; rep < opts.repetitions; ++rep) {
      auto node = core::build_node(spec, mm::PolicySpec::smart(6.0),
                                   opts.base_seed + rep, &cfg);
      node->run(spec.deadline);
      for (VmId id : node->vm_ids()) {
        vm_time[id - 1].add(to_seconds(node->runner(id).finish_time() -
                                       node->runner(id).start_time()));
      }
      sends += node->manager()->targets_sent();
      changes += node->manager()->interval_controller()->changes();
      final_s += to_seconds(node->manager()->current_interval());
    }
    std::printf("%-12.2f %10.2f %10.2f %10.2f %12llu %8llu %8.3f\n",
                interval_s, vm_time[0].mean(), vm_time[1].mean(),
                vm_time[2].mean(),
                static_cast<unsigned long long>(sends / opts.repetitions),
                static_cast<unsigned long long>(changes / opts.repetitions),
                final_s / static_cast<double>(opts.repetitions) / opts.scale);
  }
  return 0;
}
