#include "mm/swap_rate_policy.hpp"

#include <cmath>

namespace smartmem::mm {

hyper::MmOut SwapRatePolicy::compute(const hyper::MemStats& stats,
                                     const PolicyContext& ctx) {
  // Update the smoothed failed-put rate per VM.
  double rate_sum = 0.0;
  for (const auto& vm : stats.vm) {
    const auto failed = static_cast<double>(vm.puts_total - vm.puts_succ);
    double& r = ewma_[vm.vm_id];
    r = kAlpha * failed + (1.0 - kAlpha) * r;
    rate_sum += r;
  }

  const auto total = static_cast<double>(ctx.total_tmem);
  const double floor_pool = total * kFloorFraction;
  const double demand_pool = total - floor_pool;
  const std::size_t n = stats.vm.size();

  hyper::MmOut out;
  out.reserve(n);
  for (const auto& vm : stats.vm) {
    double target = n == 0 ? 0.0 : floor_pool / static_cast<double>(n);
    if (rate_sum > 0.0) {
      target += demand_pool * ewma_[vm.vm_id] / rate_sum;
    } else if (n > 0) {
      target += demand_pool / static_cast<double>(n);
    }
    out.push_back({vm.vm_id, static_cast<PageCount>(std::floor(target))});
  }
  return out;
}

}  // namespace smartmem::mm
