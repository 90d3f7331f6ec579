#include "core/experiment.hpp"

#include <algorithm>
#include <utility>

#include "common/strfmt.hpp"
#include "common/thread_pool.hpp"

namespace smartmem::core {

std::vector<std::pair<std::string, double>> derive_durations(
    const std::vector<Milestone>& milestones) {
  std::vector<std::pair<std::string, double>> out;
  std::map<std::string, SimTime> starts;     // "X" from "X:start"
  std::map<std::string, SimTime> alloc_at;   // "<M>" from "alloc:<M>"

  for (const auto& m : milestones) {
    const auto& label = m.label;
    if (label.size() > 6 && label.rfind(":start") == label.size() - 6) {
      starts[label.substr(0, label.size() - 6)] = m.when;
    } else if (label.size() > 5 && label.rfind(":done") == label.size() - 5) {
      const std::string key = label.substr(0, label.size() - 5);
      if (auto it = starts.find(key); it != starts.end()) {
        out.emplace_back(key, to_seconds(m.when - it->second));
        starts.erase(it);
      }
    } else if (label.rfind("alloc:", 0) == 0) {
      alloc_at[label.substr(6)] = m.when;
    } else if (label.rfind("size-done:", 0) == 0) {
      const std::string size = label.substr(10);
      if (auto it = alloc_at.find(size); it != alloc_at.end()) {
        out.emplace_back("size:" + size, to_seconds(m.when - it->second));
        alloc_at.erase(it);
      }
    }
  }
  return out;
}

ScenarioResult run_scenario(const ScenarioSpec& scenario,
                            const mm::PolicySpec& policy, std::uint64_t seed,
                            const NodeConfig* overrides) {
  auto node = build_node(scenario, policy, seed, overrides);
  node->start();

  ScenarioResult result;
  // Each VM's tmem usage and target and the node's free tmem, sampled at
  // the start, every sampling interval and at the end of the run. The
  // sampler only reads state, so the run is the same without it.
  const hyper::Hypervisor& hyp = node->hypervisor();
  std::vector<std::pair<TimeSeries*, TimeSeries*>> vm_series;
  for (VmId id : node->vm_ids()) {
    const std::string& name = node->vm_name(id);
    vm_series.emplace_back(&result.usage.series(name),
                           &result.usage.series("target-" + name));
  }
  TimeSeries* free_series = &result.usage.series("free");
  const double unlimited = static_cast<double>(node->config().tmem_pages);
  const auto sample_usage = [&] {
    const SimTime now = node->simulator().now();
    for (VmId id = 1; id <= vm_series.size(); ++id) {
      const auto [used, target] = vm_series[id - 1];
      used->push(now, static_cast<double>(hyp.tmem_used(id)));
      const PageCount t = hyp.target(id);
      target->push(now, t == kUnlimitedTarget ? unlimited
                                              : static_cast<double>(t));
    }
    free_series->push(now, static_cast<double>(hyp.free_tmem()));
  };
  sample_usage();
  sim::EventHandle sampler = node->simulator().schedule_periodic(
      node->config().sample_interval, sample_usage);
  const SimTime end = node->run(scenario.deadline);
  sample_usage();
  sampler.cancel();

  result.scenario = scenario.name;
  result.policy = policy.label();
  result.seed = seed;
  result.end_time = end;

  for (VmId id : node->vm_ids()) {
    VmResult vm;
    vm.name = node->vm_name(id);
    const auto& runner = node->runner(id);
    vm.start_time = runner.start_time();
    vm.finish_time = runner.finish_time();
    vm.milestones = runner.milestones();
    vm.durations = derive_durations(vm.milestones);
    vm.guest = node->kernel(id).stats();
    vm.vm_data = node->hypervisor().vm_data(id);
    result.vms.push_back(std::move(vm));
  }
  return result;
}

namespace {

/// Folds completed runs (already in repetition order) into an
/// ExperimentResult. Aggregation is single-threaded and order-stable, so
/// the result is bit-identical no matter how the runs were produced.
ExperimentResult aggregate_runs(const ScenarioSpec& scenario,
                                const mm::PolicySpec& policy,
                                std::vector<ScenarioResult>&& runs) {
  ExperimentResult exp;
  exp.scenario = scenario.name;
  exp.policy_label = policy.label();

  std::map<std::pair<std::string, std::string>, RunningStats> acc;

  for (const ScenarioResult& run : runs) {
    for (const auto& vm : run.vms) {
      if (std::find(exp.vm_names.begin(), exp.vm_names.end(), vm.name) ==
          exp.vm_names.end()) {
        exp.vm_names.push_back(vm.name);
      }
      for (const auto& [label, seconds] : vm.durations) {
        if (std::find(exp.labels.begin(), exp.labels.end(), label) ==
            exp.labels.end()) {
          exp.labels.push_back(label);
        }
        acc[{vm.name, label}].add(seconds);
      }
    }
  }
  if (!runs.empty()) exp.representative = std::move(runs.front());

  for (const auto& [key, rs] : acc) {
    Summary s;
    s.mean = rs.mean();
    s.stddev = rs.stddev();
    s.min = rs.min();
    s.max = rs.max();
    s.n = rs.count();
    exp.cells[key] = s;
  }
  return exp;
}

}  // namespace

ExperimentResult run_experiment(const ScenarioSpec& scenario,
                                const mm::PolicySpec& policy,
                                const ExperimentConfig& config) {
  // Pre-sized slots indexed by repetition: workers never touch shared state,
  // and aggregation below consumes the slots in rep order.
  std::vector<ScenarioResult> runs(config.repetitions);
  parallel_for_each(config.jobs, config.repetitions, [&](std::size_t rep) {
    runs[rep] = run_scenario(scenario, policy, config.base_seed + rep,
                             config.overrides);
  });
  return aggregate_runs(scenario, policy, std::move(runs));
}

std::vector<ExperimentResult> run_experiments(
    const ScenarioSpec& scenario, const std::vector<mm::PolicySpec>& policies,
    const ExperimentConfig& config) {
  const std::size_t reps = config.repetitions;
  // One flat slot per (policy, rep) grid cell so a slow policy's runs can
  // overlap a fast one's — a per-policy barrier would idle the pool.
  std::vector<ScenarioResult> grid(policies.size() * reps);
  parallel_for_each(config.jobs, grid.size(), [&](std::size_t cell) {
    const std::size_t p = cell / reps;
    const std::size_t rep = cell % reps;
    grid[cell] = run_scenario(scenario, policies[p], config.base_seed + rep,
                              config.overrides);
  });

  std::vector<ExperimentResult> results;
  results.reserve(policies.size());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::vector<ScenarioResult> runs(
        std::make_move_iterator(grid.begin() + static_cast<std::ptrdiff_t>(p * reps)),
        std::make_move_iterator(grid.begin() + static_cast<std::ptrdiff_t>((p + 1) * reps)));
    results.push_back(aggregate_runs(scenario, policies[p], std::move(runs)));
  }
  return results;
}

}  // namespace smartmem::core
