// Extension policy (not in the paper's evaluation): proportional sharing by
// exponentially-weighted swap rate, in the spirit of the vMCA rate-based
// policies the paper cites as its ancestor [15]. It demonstrates the
// pluggable Policy API; `examples/custom_policy.cpp` builds a third-party
// policy the same way.
#pragma once

#include <unordered_map>

#include "mm/policy.hpp"

namespace smartmem::mm {

struct SwapRatePolicyConfig {
  /// EWMA smoothing factor for the per-interval failed-put rate.
  double alpha = 0.3;
  /// Fraction of total tmem always divided equally (guaranteed floor),
  /// so an idle VM can absorb a demand spike without waiting for its rate
  /// to build up.
  double floor_fraction = 0.10;
};

class SwapRatePolicy final : public Policy {
 public:
  explicit SwapRatePolicy(SwapRatePolicyConfig config = {});

  std::string name() const override { return "swap-rate"; }

  hyper::MmOut compute(const hyper::MemStats& stats,
                       const PolicyContext& ctx) override;

 private:
  SwapRatePolicyConfig config_;
  std::unordered_map<VmId, double> ewma_;
};

}  // namespace smartmem::mm
