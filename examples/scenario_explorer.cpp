// Interactive-ish explorer for the paper's scenarios: run any scenario under
// any policy, watch the tmem-usage chart, and optionally dump CSVs.
//
//   $ ./build/examples/scenario_explorer --scenario usemem --policy smart:2
//         --scale 0.25 --seed 7 --csv /tmp --verbose
//
// This is the "kick the tires" tool: everything the figure benches do, but
// one run at a time with full stats output.
#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "core/smartmem.hpp"

using namespace smartmem;

namespace {

const std::map<std::string, core::ScenarioSpec (*)(double)> kScenarios = {
    {"scenario1", core::scenario1},
    {"scenario2", core::scenario2},
    {"usemem", core::usemem_scenario},
    {"scenario3", core::scenario3},
};

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name = "scenario1";
  std::string policy_text = "smart:0.75";
  double scale = 0.125;
  std::uint64_t seed = 1;
  std::string csv_dir;
  bool verbose = false;

  // The benches' parser: a malformed, out-of-range or unknown value exits 2
  // with the flag list before anything runs.
  bench::parse_flags(
      argc, argv,
      {{"--scenario", "<name>",
        "scenario1 | scenario2 | usemem | scenario3 (default scenario1)",
        bench::validated_text(scenario_name,
                              [](const std::string& name) {
                                if (!kScenarios.contains(name)) {
                                  throw std::invalid_argument(name);
                                }
                              })},
       {"--policy", "<spec>",
        "no-tmem | greedy | static | reconf | smart:<P> | swap-rate "
        "(default smart:0.75)",
        bench::validated_text(policy_text,
                              [](const char* text) {
                                (void)mm::PolicySpec::parse(text);
                              })},
       bench::scale_flag(scale),
       bench::seed_flag(seed),
       bench::csv_flag(csv_dir),
       {"--verbose", "", "debug logging", bench::assign(verbose, true)}});
  if (verbose) log::set_level(log::Level::kDebug);

  const core::ScenarioSpec spec = kScenarios.at(scenario_name)(scale);
  const mm::PolicySpec policy = mm::PolicySpec::parse(policy_text);

  std::printf("%s under %s (scale %.4g, seed %llu)\n%s\n\n", spec.name.c_str(),
              policy.label().c_str(), scale,
              static_cast<unsigned long long>(seed),
              spec.description.c_str());

  const core::ScenarioResult r = core::run_scenario(spec, policy, seed);

  std::printf("finished at %.2fs simulated\n\n", to_seconds(r.end_time));
  for (const auto& vm : r.vms) {
    std::printf("%s: start %.2fs, finish %.2fs\n", vm.name.c_str(),
                to_seconds(vm.start_time), to_seconds(vm.finish_time));
    for (const auto& [label, seconds] : vm.durations) {
      std::printf("    %-16s %8.2fs\n", label.c_str(), seconds);
    }
    const auto& g = vm.guest;
    std::printf(
        "    touches %llu | faults %llu | swap-in tmem/disk %llu/%llu | "
        "swap-out tmem/disk/clean %llu/%llu/%llu\n",
        static_cast<unsigned long long>(g.touches),
        static_cast<unsigned long long>(g.faults),
        static_cast<unsigned long long>(g.swapins_tmem),
        static_cast<unsigned long long>(g.swapins_disk),
        static_cast<unsigned long long>(g.swapouts_tmem),
        static_cast<unsigned long long>(g.swapouts_disk),
        static_cast<unsigned long long>(g.swapouts_clean));
    std::printf(
        "    puts ok/failed %llu/%llu | gets %llu | flushes %llu | "
        "targets applied %llu\n",
        static_cast<unsigned long long>(vm.vm_data.cumul_puts_succ),
        static_cast<unsigned long long>(vm.vm_data.cumul_puts_failed),
        static_cast<unsigned long long>(vm.vm_data.cumul_gets_total),
        static_cast<unsigned long long>(vm.vm_data.cumul_flushes),
        static_cast<unsigned long long>(vm.vm_data.targets_applied));
  }

  std::printf("\n");
  core::print_usage_panel(std::cout, "tmem usage over time", r,
                          /*include_targets=*/policy.needs_manager());

  if (!csv_dir.empty()) {
    const std::string path =
        csv_dir + "/" + spec.name + "_" + policy.label() + "_usage.csv";
    core::write_usage_csv(path, r);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
