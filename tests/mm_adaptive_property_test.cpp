// Staleness-aware smart-alloc: property tests over randomized samples.
//
//   * Equation 2 survives stale-widen: however far the widened increments
//     overshoot, the renormalized sum of targets never exceeds the node's
//     tmem and no single target does either.
//   * A fresh sample produces byte-identical output with stale-widen on and
//     off — the mode only engages beyond the threshold.
//   * The staleness normalization uses the interval carried by the sample
//     (MemStats::interval), falling back to the MM's configured one only
//     for samples that carry none.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "mm/manager.hpp"
#include "mm/smart_policy.hpp"

namespace smartmem::mm {
namespace {

SmartPolicyConfig stale_config(StaleMode mode, double p = 6.0) {
  SmartPolicyConfig cfg;
  cfg.p_percent = p;
  cfg.stale_mode = mode;
  return cfg;
}

hyper::MemStats random_stats(Rng& rng, PageCount total, std::uint32_t vms) {
  hyper::MemStats stats;
  stats.total_tmem = total;
  stats.vm_count = vms;
  for (VmId id = 1; id <= vms; ++id) {
    hyper::VmMemStats v;
    v.vm_id = id;
    // Mix grounded and unlimited targets; used can exceed the fair share.
    v.mm_target = rng.chance(0.2) ? kUnlimitedTarget
                                  : static_cast<PageCount>(rng.uniform(total));
    v.tmem_used = static_cast<PageCount>(rng.uniform(total));
    v.puts_total = rng.uniform(2000);
    v.puts_succ = v.puts_total - rng.uniform(v.puts_total + 1);
    stats.vm.push_back(v);
  }
  return stats;
}

TEST(StalePropertyTest, WidenPreservesEquation2OnRandomSamples) {
  Rng rng(0xADA7ull);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto total =
        static_cast<PageCount>(rng.uniform_range(1000, 2'000'000));
    const auto vms = static_cast<std::uint32_t>(rng.uniform(6)) + 1;
    SmartPolicy policy(stale_config(StaleMode::kWiden));
    hyper::MemStats stats = random_stats(rng, total, vms);
    PolicyContext ctx;
    ctx.total_tmem = total;
    ctx.stats_age_intervals = rng.uniform_double() * 8.0;  // 0..8 intervals

    const hyper::MmOut out = policy.compute(stats, ctx);
    ASSERT_EQ(out.size(), stats.vm.size()) << "trial " << trial;
    double sum = 0.0;
    for (const auto& t : out) {
      // No target may exceed the node by itself...
      ASSERT_LE(t.mm_target, total) << "trial " << trial;
      sum += static_cast<double>(t.mm_target);
    }
    // ...and Equation 2 holds for the vector: the widened grants passed
    // through the same renormalization as the base algorithm.
    ASSERT_LE(sum, static_cast<double>(total)) << "trial " << trial;
  }
}

TEST(StalePropertyTest, FreshSamplesMatchBaselineByteForByte) {
  Rng rng(0xF00Dull);
  for (int trial = 0; trial < 500; ++trial) {
    const PageCount total = 100'000;
    hyper::MemStats stats = random_stats(rng, total, 3);
    PolicyContext ctx;
    ctx.total_tmem = total;
    // Below the 1.5-interval threshold: the modes must not engage.
    ctx.stats_age_intervals = rng.uniform_double() * 1.5;

    SmartPolicy off(stale_config(StaleMode::kOff));
    SmartPolicy widen(stale_config(StaleMode::kWiden));
    const hyper::MmOut base = off.compute(stats, ctx);
    ASSERT_EQ(widen.compute(stats, ctx), base) << "trial " << trial;
    EXPECT_EQ(widen.stale_decisions(), 0u);
  }
}

TEST(StalePropertyTest, WidenFactorIsMonotonicAndCapped) {
  SmartPolicy policy(stale_config(StaleMode::kWiden));
  const double threshold = policy.config().stale_threshold_intervals;
  const double cap = SmartPolicy::kStaleWidenMax;
  EXPECT_EQ(policy.widen_factor(0.0), 1.0);
  EXPECT_EQ(policy.widen_factor(threshold), 1.0);
  double prev = 1.0;
  for (double age = threshold; age < threshold + 10.0; age += 0.25) {
    const double f = policy.widen_factor(age);
    EXPECT_GE(f, prev);
    EXPECT_LE(f, cap);
    prev = f;
  }
  EXPECT_EQ(policy.widen_factor(threshold + 100.0), cap);
}

TEST(StalePropertyTest, WidenedConditionIsAudited) {
  SmartPolicy policy(stale_config(StaleMode::kWiden));
  hyper::MemStats stats;
  stats.total_tmem = 10'000;
  hyper::VmMemStats v;
  v.vm_id = 1;
  v.mm_target = 2'000;
  v.tmem_used = 2'000;
  v.puts_total = 100;
  v.puts_succ = 50;  // failed puts -> grow path
  stats.vm.push_back(v);
  PolicyContext ctx;
  ctx.total_tmem = 10'000;
  ctx.stats_age_intervals = 3.0;  // stale
  obs::PolicyAuditScratch scratch;
  ctx.audit = &scratch;
  const hyper::MmOut out = policy.compute(stats, ctx);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(scratch.vms.size(), 1u);
  EXPECT_STREQ(scratch.vms[0].condition, "alg4:stale-widen");
  EXPECT_STREQ(scratch.vms[0].verdict, "grow");
  // age 3.0, threshold 1.5 -> widen factor 2.5: the grant is 2.5x P.
  const double expect =
      2'000.0 + 6.0 * 2.5 * 10'000.0 / 100.0;
  EXPECT_EQ(out[0].mm_target, static_cast<PageCount>(expect));
}

// ---- MM-level behaviour ----------------------------------------------------

/// Two VMs at 40 % of the node each: VM 1 failed every put (it grows),
/// VM 2 uses its whole target (it holds). A fresh grant of P = 6 % fits
/// without renormalization, so a widened one moves VM 1's target further.
hyper::MemStats hot_stats(PageCount total, SimTime when, SimTime interval) {
  hyper::MemStats stats;
  stats.total_tmem = total;
  stats.vm_count = 2;
  stats.when = when;
  stats.interval = interval;
  for (VmId id = 1; id <= 2; ++id) {
    hyper::VmMemStats v;
    v.vm_id = id;
    v.mm_target = total * 2 / 5;
    v.tmem_used = total * 2 / 5;
    v.puts_total = 100;
    v.puts_succ = id == 1 ? 0 : 100;
    stats.vm.push_back(v);
  }
  return stats;
}

// The staleness normalization uses the interval the sample carries
// (MemStats::interval), not the configured one: a hypervisor sampling every
// 4 s delivers a 4 s-old sample exactly one interval old, not four.
TEST(StaleManagerTest, StalenessNormalizedByCaptureInterval) {
  ManagerConfig cfg;
  cfg.sample_interval = kSecond;  // configured fallback interval
  MemoryManager mm(
      std::make_unique<SmartPolicy>(stale_config(StaleMode::kWiden)), 10'000,
      cfg);
  SimTime now = 4 * kSecond;
  mm.set_clock([&now] { return now; });
  std::vector<hyper::TargetsMsg> sent;
  mm.set_sender([&](const hyper::TargetsMsg& msg) { sent.push_back(msg); });

  // Captured at 0 under a 4 s interval, delivered at 4 s: exactly one
  // interval old -> NOT stale -> the decision goes through.
  mm.on_stats(hot_stats(10'000, 0, 4 * kSecond));
  EXPECT_DOUBLE_EQ(mm.last_stats_age_intervals(), 1.0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].targets[0].mm_target, 4'600u);  // 4000 + P
  EXPECT_EQ(mm.policy().stale_decisions(), 0u);

  // The same delivery without the carried interval falls back to the
  // configured 1 s and classifies as 4 intervals stale -> widened.
  hyper::MemStats legacy = hot_stats(10'000, 0, 0);
  legacy.seq = 2;
  now = 4 * kSecond + 1;  // strictly newer delivery time
  mm.on_stats(legacy);
  EXPECT_GT(mm.last_stats_age_intervals(), 3.9);
  EXPECT_EQ(mm.policy().stale_decisions(), 1u);
  // A second, widened send: 4000 + 3.5 P = 6100 for VM 1, renormalized
  // with VM 2's 4000 onto the node's 10000.
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1].targets[0].mm_target, 6'039u);
  EXPECT_EQ(sent[1].targets[1].mm_target, 3'960u);
}

}  // namespace
}  // namespace smartmem::mm
