// Scenario execution and repeated-experiment aggregation.
//
// The paper runs every scenario five times per policy and reports mean and
// standard deviation of per-VM running times. run_scenario() performs one
// seeded run and extracts the milestone-derived durations; run_experiment()
// repeats it and aggregates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/time_series.hpp"
#include "core/scenario.hpp"
#include "guest/guest_kernel.hpp"
#include "hyper/vm_data.hpp"
#include "mm/policy_factory.hpp"

namespace smartmem::core {

struct VmResult {
  std::string name;
  SimTime start_time = 0;
  SimTime finish_time = 0;
  std::vector<Milestone> milestones;
  /// Durations in seconds derived from milestone pairs, in completion order:
  ///  * "run:<k>"  = run:<k>:done - run:<k>:start   (analytics workloads)
  ///  * "size:<M>" = size-done:<M> - alloc:<M>      (usemem)
  std::vector<std::pair<std::string, double>> durations;
  guest::GuestStats guest;
  hyper::VmData vm_data;  // cumulative hypervisor counters at end of run
};

struct ScenarioResult {
  std::string scenario;
  std::string policy;
  std::uint64_t seed = 0;
  SimTime end_time = 0;
  std::vector<VmResult> vms;
  /// Per-VM tmem pages and targets ("VM1", "target-VM1", ...) and the
  /// node's free tmem ("free"): one point at t = 0, one every sampling
  /// interval and one at end_time.
  SeriesSet usage;
};

/// One seeded run of `scenario` under `policy`.
ScenarioResult run_scenario(const ScenarioSpec& scenario,
                            const mm::PolicySpec& policy, std::uint64_t seed,
                            const NodeConfig* overrides = nullptr);

struct ExperimentConfig {
  std::size_t repetitions = 5;  // the paper's repetition count
  std::uint64_t base_seed = 1;
  const NodeConfig* overrides = nullptr;
  /// Worker threads for fanning the seeded runs out. 1 (the default) runs
  /// serially on the calling thread — byte-identical to the pre-parallel
  /// code path; 0 uses every hardware thread. Results are aggregated in
  /// repetition order after all runs finish, so the output is bit-identical
  /// for every jobs value (each run seeds its own Rng from base_seed + rep
  /// and shares no state with its siblings).
  std::size_t jobs = 1;
};

struct ExperimentResult {
  std::string scenario;
  std::string policy_label;
  std::vector<std::string> vm_names;
  /// Duration labels in first-seen order (e.g. run:1, run:2 / size:96 ...).
  std::vector<std::string> labels;
  /// (vm, label) -> aggregate over repetitions, in seconds.
  std::map<std::pair<std::string, std::string>, Summary> cells;
  /// One representative full run (the first seed), for usage plots/stats.
  ScenarioResult representative;

  const Summary* cell(const std::string& vm, const std::string& label) const {
    auto it = cells.find({vm, label});
    return it == cells.end() ? nullptr : &it->second;
  }
};

ExperimentResult run_experiment(const ScenarioSpec& scenario,
                                const mm::PolicySpec& policy,
                                const ExperimentConfig& config = {});

/// Runs the whole policy set over `scenario`, fanning every (policy, rep)
/// cell of the grid out over one shared pool of `config.jobs` workers.
/// Results come back in `policies` order regardless of completion order and
/// are bit-identical to calling run_experiment() per policy.
std::vector<ExperimentResult> run_experiments(
    const ScenarioSpec& scenario, const std::vector<mm::PolicySpec>& policies,
    const ExperimentConfig& config = {});

/// Derives the duration list from a VM's milestones (exposed for tests).
std::vector<std::pair<std::string, double>> derive_durations(
    const std::vector<Milestone>& milestones);

}  // namespace smartmem::core
