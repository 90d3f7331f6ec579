// Interactive-ish explorer for the paper's scenarios: run any scenario under
// any policy, watch the tmem-usage chart, and optionally dump CSVs.
//
//   $ ./build/examples/scenario_explorer --scenario usemem --policy smart:2
//         --scale 0.25 --seed 7 --csv /tmp --verbose
//
// This is the "kick the tires" tool: everything the figure benches do, but
// one run at a time with full stats output.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/smartmem.hpp"

using namespace smartmem;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--scenario scenario1|scenario2|usemem|scenario3]\n"
      "          [--policy no-tmem|greedy|static|reconf|smart:<P>|swap-rate]\n"
      "          [--scale <f>] [--seed <n>] [--csv <dir>] [--verbose]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name = "scenario1";
  std::string policy_text = "smart:0.75";
  double scale = 0.125;
  std::uint64_t seed = 1;
  std::string csv_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario_name = next();
    } else if (arg == "--policy") {
      policy_text = next();
    } else if (arg == "--scale") {
      scale = std::atof(next());
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--csv") {
      csv_dir = next();
    } else if (arg == "--verbose") {
      log::set_level(log::Level::kDebug);
    } else {
      usage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  core::ScenarioSpec spec = [&] {
    if (scenario_name == "scenario1") return core::scenario1(scale);
    if (scenario_name == "scenario2") return core::scenario2(scale);
    if (scenario_name == "usemem") return core::usemem_scenario(scale);
    if (scenario_name == "scenario3") return core::scenario3(scale);
    usage(argv[0]);
    std::exit(2);
  }();
  mm::PolicySpec policy;
  try {
    policy = mm::PolicySpec::parse(policy_text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--policy: %s\n", e.what());
    return 2;
  }

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
