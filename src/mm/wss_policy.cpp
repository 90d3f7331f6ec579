#include "mm/wss_policy.hpp"

#include <algorithm>
#include <cmath>

namespace smartmem::mm {

PageCount WssPolicy::estimate(VmId vm) const {
  auto it = windows_.find(vm);
  if (it == windows_.end() || it->second.empty()) return 0;
  return *std::max_element(it->second.begin(), it->second.end());
}

hyper::MmOut WssPolicy::compute(const hyper::MemStats& stats,
                                const PolicyContext& ctx) {
  // Record this interval's demand signal per VM: what it held, plus what it
  // asked for and was denied (each failed put is one page of unserved
  // working set).
  for (const auto& vm : stats.vm) {
    const std::uint64_t failed = vm.puts_total - vm.puts_succ;
    auto& window = windows_[vm.vm_id];
    window.push_back(vm.tmem_used + failed);
    while (window.size() > kWindow) window.pop_front();
  }

  const auto total = static_cast<double>(ctx.total_tmem);
  const std::size_t n = stats.vm.size();
  const double floor_share =
      n == 0 ? 0.0 : total * kFloorFraction / static_cast<double>(n);

  hyper::MmOut out;
  out.reserve(n);
  double sum = 0.0;
  for (const auto& vm : stats.vm) {
    const double want =
        floor_share +
        static_cast<double>(estimate(vm.vm_id)) * kHeadroom;
    out.push_back({vm.vm_id, static_cast<PageCount>(want)});
    sum += want;
  }

  // Same Equation-2 style normalization as smart-alloc: never promise more
  // than the node has.
  if (sum > total && sum > 0.0) {
    const double factor = total / sum;
    for (auto& t : out) {
      t.mm_target = static_cast<PageCount>(
          std::floor(static_cast<double>(t.mm_target) * factor));
    }
  }
  return out;
}

}  // namespace smartmem::mm
