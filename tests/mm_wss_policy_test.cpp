// WSS-estimation policy (extension): window tracking, headroom, floor,
// normalization and end-to-end behaviour.
#include "mm/wss_policy.hpp"

#include <gtest/gtest.h>

#include "mm/policy_factory.hpp"
#include "mm/smart_policy.hpp"

namespace smartmem::mm {
namespace {

hyper::MemStats make_stats(PageCount total,
                           std::vector<hyper::VmMemStats> vms) {
  hyper::MemStats stats;
  stats.total_tmem = total;
  stats.vm_count = static_cast<std::uint32_t>(vms.size());
  stats.vm = std::move(vms);
  return stats;
}

PageCount target_of(const hyper::MmOut& out, VmId vm) {
  for (const auto& t : out) {
    if (t.vm_id == vm) return t.mm_target;
  }
  ADD_FAILURE() << "no target for VM " << vm;
  return 0;
}

TEST(WssPolicyTest, EstimateIsWindowHighWaterMark) {
  WssPolicy policy;
  PolicyContext ctx;
  ctx.total_tmem = 10000;
  for (PageCount used : {100u, 300u, 200u}) {
    hyper::VmMemStats v{.vm_id = 1, .tmem_used = used};
    policy.compute(make_stats(10000, {v}), ctx);
  }
  EXPECT_EQ(policy.estimate(1), 300u);
  // Window slides: kWindow - 1 more samples push 100 and 300 out.
  for (std::size_t i = 0; i + 1 < WssPolicy::kWindow; ++i) {
    hyper::VmMemStats v{.vm_id = 1, .tmem_used = 50};
    policy.compute(make_stats(10000, {v}), ctx);
  }
  EXPECT_EQ(policy.estimate(1), 200u);
}

TEST(WssPolicyTest, FailedPutsCountAsUnservedDemand) {
  WssPolicy policy;
  PolicyContext ctx;
  ctx.total_tmem = 10000;
  hyper::VmMemStats v{.vm_id = 1, .puts_total = 500, .puts_succ = 200,
                      .tmem_used = 1000};
  const auto out = policy.compute(make_stats(10000, {v}), ctx);
  // Estimate = used (1000) + failed (300) = 1300.
  EXPECT_EQ(policy.estimate(1), 1300u);
  // Target = floor (5 % of 10000) + 1.1 x the estimate.
  EXPECT_EQ(target_of(out, 1), 500u + 1430u);
}

TEST(WssPolicyTest, HeadroomAndFloorApplied) {
  WssPolicy policy;
  PolicyContext ctx;
  ctx.total_tmem = 10000;
  hyper::VmMemStats busy{.vm_id = 1, .tmem_used = 1000};
  hyper::VmMemStats idle{.vm_id = 2};
  const auto out = policy.compute(make_stats(10000, {busy, idle}), ctx);
  // Floor = 5% of 10000 split over 2 VMs = 250 each.
  EXPECT_EQ(target_of(out, 2), 250u);
  EXPECT_EQ(target_of(out, 1), 250u + 1100u);  // floor + 1.1x estimate
}

TEST(WssPolicyTest, NormalizesOvercommit) {
  WssPolicy policy;
  PolicyContext ctx;
  ctx.total_tmem = 1000;
  hyper::VmMemStats a{.vm_id = 1, .tmem_used = 800};
  hyper::VmMemStats b{.vm_id = 2, .tmem_used = 800};
  const auto out = policy.compute(make_stats(1000, {a, b}), ctx);
  EXPECT_LE(target_of(out, 1) + target_of(out, 2), 1000u);
  EXPECT_EQ(target_of(out, 1), target_of(out, 2));
}

TEST(WssPolicyTest, FactoryAndParse) {
  EXPECT_EQ(PolicySpec::parse("wss").kind, PolicyKind::kWss);
  EXPECT_EQ(PolicySpec::wss().label(), "wss");
  EXPECT_EQ(make_policy(PolicySpec::wss())->name(), "wss-estimate");
  EXPECT_TRUE(PolicySpec::wss().needs_manager());
}

TEST(WssPolicyTest, ConvergesFasterThanSmartAfterDemandStep) {
  // A VM's demand jumps from 0 to 3000 pages. Count the intervals each
  // policy needs before its target covers the demand.
  auto intervals_to_cover = [](PolicyPtr policy) {
    PolicyContext ctx;
    ctx.total_tmem = 10000;
    PageCount target = 2000;  // stale target from a quiet phase
    for (int i = 1; i <= 50; ++i) {
      hyper::VmMemStats v{.vm_id = 1,
                          .puts_total = 1000,
                          .puts_succ = 200,
                          .tmem_used = std::min<PageCount>(target, 3000),
                          .mm_target = target};
      const auto out = policy->compute(
          [&] {
            hyper::MemStats stats;
            stats.total_tmem = 10000;
            stats.vm_count = 1;
            stats.vm = {v};
            return stats;
          }(),
          ctx);
      target = out[0].mm_target;
      if (target >= 3000) return i;
    }
    return 50;
  };
  const int wss = intervals_to_cover(std::make_unique<WssPolicy>());
  const int smart = intervals_to_cover(
      std::make_unique<SmartPolicy>(SmartPolicyConfig{2.0, 0}));
  EXPECT_LT(wss, smart);
  EXPECT_LE(wss, 2);
}

}  // namespace
}  // namespace smartmem::mm
