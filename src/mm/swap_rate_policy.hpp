// Extension policy (not in the paper's evaluation): proportional sharing by
// exponentially-weighted swap rate, in the spirit of the vMCA rate-based
// policies the paper cites as its ancestor [15]. It demonstrates the
// pluggable Policy API; `examples/custom_policy.cpp` builds a third-party
// policy the same way.
#pragma once

#include <unordered_map>

#include "mm/policy.hpp"

namespace smartmem::mm {

class SwapRatePolicy final : public Policy {
 public:
  /// EWMA smoothing factor for the per-interval failed-put rate.
  static constexpr double kAlpha = 0.3;
  /// Fraction of total tmem always divided equally (guaranteed floor),
  /// so an idle VM can absorb a demand spike without waiting for its rate
  /// to build up.
  static constexpr double kFloorFraction = 0.10;

  std::string name() const override { return "swap-rate"; }

  hyper::MmOut compute(const hyper::MemStats& stats,
                       const PolicyContext& ctx) override;

 private:
  std::unordered_map<VmId, double> ewma_;
};

}  // namespace smartmem::mm
