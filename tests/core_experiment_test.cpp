// Duration derivation, repetition aggregation and determinism of the
// experiment harness.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace smartmem::core {
namespace {

TEST(DeriveDurationsTest, StartDonePairs) {
  const std::vector<Milestone> ms = {
      {"run:1:start", 10 * kSecond},
      {"run:1:done", 25 * kSecond},
      {"run:2:start", 30 * kSecond},
      {"run:2:done", 42 * kSecond},
  };
  const auto d = derive_durations(ms);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].first, "run:1");
  EXPECT_DOUBLE_EQ(d[0].second, 15.0);
  EXPECT_EQ(d[1].first, "run:2");
  EXPECT_DOUBLE_EQ(d[1].second, 12.0);
}

TEST(DeriveDurationsTest, UsememAllocSizeDonePairs) {
  const std::vector<Milestone> ms = {
      {"alloc:128", 0},
      {"size-done:128", 2 * kSecond},
      {"alloc:256", 2 * kSecond},
      {"size-done:256", 7 * kSecond},
      {"pass:1", 7 * kSecond},
  };
  const auto d = derive_durations(ms);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].first, "size:128");
  EXPECT_DOUBLE_EQ(d[0].second, 2.0);
  EXPECT_EQ(d[1].first, "size:256");
  EXPECT_DOUBLE_EQ(d[1].second, 5.0);
}

TEST(DeriveDurationsTest, UnmatchedMarkersIgnored) {
  const std::vector<Milestone> ms = {
      {"run:1:start", 0},
      {"alloc:128", 0},
      {"build:done", kSecond},  // no matching start
  };
  EXPECT_TRUE(derive_durations(ms).empty());
}

class ExperimentFixture : public ::testing::Test {
 protected:
  // A very small scenario so repeated runs stay fast.
  ScenarioSpec spec_ = scenario1(0.03125);  // 32 MiB VMs
};

TEST_F(ExperimentFixture, RunScenarioProducesDurationsAndUsage) {
  const ScenarioResult r =
      run_scenario(spec_, mm::PolicySpec::greedy(), 42);
  EXPECT_EQ(r.scenario, "scenario1");
  EXPECT_EQ(r.policy, "greedy");
  ASSERT_EQ(r.vms.size(), 3u);
  for (const auto& vm : r.vms) {
    ASSERT_EQ(vm.durations.size(), 2u) << vm.name;  // two analytics runs
    EXPECT_EQ(vm.durations[0].first, "run:1");
    EXPECT_GT(vm.durations[0].second, 0.0);
    EXPECT_GT(vm.guest.touches, 0u);
  }
  EXPECT_NE(r.usage.find("VM1"), nullptr);
}

// run_scenario samples each VM's tmem usage and target and the node's free
// tmem: one point at t = 0, one every sampling interval and one at the end.
TEST_F(ExperimentFixture, UsageSeriesCoverTheRunAtTheSamplingInterval) {
  const ScenarioResult r = run_scenario(spec_, mm::PolicySpec::smart(2.0), 42);
  const SimTime interval = scaled_node_defaults(spec_.scale).sample_interval;
  ASSERT_GT(interval, 0);
  std::vector<std::string> names = {"free"};
  for (const VmResult& vm : r.vms) {
    names.push_back(vm.name);
    names.push_back("target-" + vm.name);
  }
  ASSERT_EQ(names.size(), 7u);
  ASSERT_EQ(r.usage.all().size(), names.size());
  const std::size_t points = r.usage.find("free")->size();
  ASSERT_GE(points, 3u);
  for (const std::string& name : names) {
    const TimeSeries* ts = r.usage.find(name);
    ASSERT_NE(ts, nullptr) << name;
    const std::vector<Sample>& s = ts->samples();
    ASSERT_EQ(s.size(), points) << name;
    EXPECT_EQ(s.front().when, 0) << name;
    EXPECT_EQ(s.back().when, r.end_time) << name;
    for (std::size_t i = 1; i + 1 < s.size(); ++i) {
      ASSERT_EQ(s[i].when, static_cast<SimTime>(i) * interval)
          << name << " point " << i;
    }
    EXPECT_LE(s.back().when - s[s.size() - 2].when, interval) << name;
  }
  // Every page is either free or held by one VM at every point.
  for (std::size_t i = 0; i < points; ++i) {
    double held = r.usage.find("free")->samples()[i].value;
    for (const VmResult& vm : r.vms) {
      held += r.usage.find(vm.name)->samples()[i].value;
    }
    ASSERT_EQ(held, static_cast<double>(spec_.tmem_pages)) << "point " << i;
  }
}

TEST_F(ExperimentFixture, SameSeedIsBitIdentical) {
  const auto a = run_scenario(spec_, mm::PolicySpec::smart(2.0), 7);
  const auto b = run_scenario(spec_, mm::PolicySpec::smart(2.0), 7);
  EXPECT_EQ(a.end_time, b.end_time);
  for (std::size_t i = 0; i < a.vms.size(); ++i) {
    EXPECT_EQ(a.vms[i].finish_time, b.vms[i].finish_time);
    EXPECT_EQ(a.vms[i].guest.faults, b.vms[i].guest.faults);
    EXPECT_EQ(a.vms[i].vm_data.cumul_puts_total,
              b.vms[i].vm_data.cumul_puts_total);
  }
}

TEST_F(ExperimentFixture, DifferentSeedsDiffer) {
  const auto a = run_scenario(spec_, mm::PolicySpec::greedy(), 7);
  const auto b = run_scenario(spec_, mm::PolicySpec::greedy(), 8);
  EXPECT_NE(a.end_time, b.end_time);
}

TEST_F(ExperimentFixture, ExperimentAggregatesRepetitions) {
  ExperimentConfig cfg;
  cfg.repetitions = 3;
  const ExperimentResult exp =
      run_experiment(spec_, mm::PolicySpec::greedy(), cfg);
  EXPECT_EQ(exp.policy_label, "greedy");
  EXPECT_EQ(exp.vm_names.size(), 3u);
  EXPECT_EQ(exp.labels.size(), 2u);
  const Summary* cell = exp.cell("VM1", "run:1");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->n, 3u);
  EXPECT_GT(cell->mean, 0.0);
  EXPECT_GE(cell->max, cell->min);
  EXPECT_EQ(exp.cell("VM9", "run:1"), nullptr);
  // The representative run carries usage series for the figure benches.
  EXPECT_FALSE(exp.representative.usage.empty());
}

}  // namespace
}  // namespace smartmem::core
