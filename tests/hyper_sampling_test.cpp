// The sampling VIRQ: 1-second cadence, interval-counter resets, and the
// slow background reclaim of over-target VMs.
#include <gtest/gtest.h>

#include <vector>

#include "hyper/hypervisor.hpp"

namespace smartmem::hyper {
namespace {

constexpr auto kFrontswap = tmem::PoolType::kPersistent;
constexpr auto kCleancache = tmem::PoolType::kEphemeral;

TEST(SamplingTest, VirqFiresOncePerInterval) {
  sim::Simulator sim;
  HypervisorConfig cfg;
  cfg.total_tmem_pages = 10;
  cfg.sample_interval = kSecond;
  Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);

  std::vector<SimTime> fired;
  hyp.start_sampling([&](const MemStats& stats) { fired.push_back(stats.when); });
  sim.run_until(5 * kSecond + kMillisecond);
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_EQ(fired[0], kSecond);
  EXPECT_EQ(fired[4], 5 * kSecond);
  EXPECT_EQ(hyp.samples_taken(), 5u);

  hyp.stop_sampling();
  sim.run_until(10 * kSecond);
  EXPECT_EQ(fired.size(), 5u);
}

TEST(SamplingTest, IntervalCountersResetAfterEachSample) {
  sim::Simulator sim;
  HypervisorConfig cfg;
  cfg.total_tmem_pages = 100;
  Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);

  std::vector<std::uint64_t> puts_per_interval;
  hyp.start_sampling([&](const MemStats& stats) {
    puts_per_interval.push_back(stats.vm[0].puts_total);
  });

  // 3 puts in interval 1, none in interval 2.
  sim.schedule(kMillisecond, [&] {
    for (std::uint32_t i = 0; i < 3; ++i) (void)hyp.put(1, kFrontswap, 0, i, i);
  });
  sim.run_until(2 * kSecond + kMillisecond);
  ASSERT_EQ(puts_per_interval.size(), 2u);
  EXPECT_EQ(puts_per_interval[0], 3u);
  EXPECT_EQ(puts_per_interval[1], 0u);
  // Cumulative counters survive the reset.
  EXPECT_EQ(hyp.vm_data(1).cumul_puts_total, 3u);
}

TEST(SamplingTest, SlowReclaimEvictsEphemeralOfOverTargetVm) {
  sim::Simulator sim;
  HypervisorConfig cfg;
  cfg.total_tmem_pages = 100;
  cfg.slow_reclaim_pages_per_tick = 4;
  Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);
  for (std::uint32_t i = 0; i < 20; ++i) (void)hyp.put(1, kCleancache, 0, i, i);
  for (std::uint32_t i = 0; i < 5; ++i) (void)hyp.put(1, kFrontswap, 0, i, i);
  ASSERT_EQ(hyp.tmem_used(1), 25u);

  hyp.set_targets({{1, 10}});
  hyp.start_sampling(nullptr);
  sim.run_until(kSecond + 1);
  // One tick: at most 4 ephemeral pages clawed back.
  EXPECT_EQ(hyp.tmem_used(1), 21u);
  sim.run_until(10 * kSecond + 1);
  // Excess was 15 but only 20 ephemeral pages exist; reclaim stops at the
  // target and never touches persistent pages.
  EXPECT_EQ(hyp.tmem_used(1), 10u);
  EXPECT_EQ(hyp.vm_data(1).pages_reclaimed, 15u);
  EXPECT_EQ(hyp.store().vm_pages(1), 10u);
}

TEST(SamplingTest, SlowReclaimNeverDropsPersistentPages) {
  sim::Simulator sim;
  HypervisorConfig cfg;
  cfg.total_tmem_pages = 100;
  cfg.slow_reclaim_pages_per_tick = 100;
  Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);
  for (std::uint32_t i = 0; i < 8; ++i) (void)hyp.put(1, kFrontswap, 0, i, i);
  hyp.set_targets({{1, 2}});
  hyp.start_sampling(nullptr);
  sim.run_until(5 * kSecond);
  EXPECT_EQ(hyp.tmem_used(1), 8u);  // untouched: all persistent
  for (std::uint32_t i = 0; i < 8; ++i) {
    const TmemOp got = hyp.get(1, kFrontswap, 0, i);
    EXPECT_TRUE(got.ok()) << "data lost by reclaim";
    EXPECT_EQ(got.payload, i);
  }
}

// A reclaim rate of 0 pages per tick switches slow reclaim off.
TEST(SamplingTest, SlowReclaimDisabled) {
  sim::Simulator sim;
  HypervisorConfig cfg;
  cfg.total_tmem_pages = 100;
  cfg.slow_reclaim_pages_per_tick = 0;
  Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);
  for (std::uint32_t i = 0; i < 10; ++i) (void)hyp.put(1, kCleancache, 0, i, i);
  hyp.set_targets({{1, 1}});
  hyp.start_sampling(nullptr);
  sim.run_until(5 * kSecond);
  EXPECT_EQ(hyp.tmem_used(1), 10u);
}

}  // namespace
}  // namespace smartmem::hyper
