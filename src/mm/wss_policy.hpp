// Extension policy: working-set-size estimation (the direction of Zhao et
// al. [22], which the paper contrasts itself against — predicting demand
// instead of reacting to failed puts).
//
// The MM cannot see inside the guests, but the tmem statistics stream lets
// it *estimate* each VM's tmem working set: the high-water mark of pages the
// VM actually held over a sliding window, plus the unserved demand implied
// by recent failed puts. Targets are then provisioned to the estimate (with
// headroom), normalized like smart-alloc when over-committed.
//
// Compared with smart-alloc this converges in one window instead of creeping
// by P% per interval, at the price of over-provisioning bursty VMs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "mm/policy.hpp"

namespace smartmem::mm {

class WssPolicy final : public Policy {
 public:
  /// Sliding window length in samples (= seconds at the paper's interval).
  static constexpr std::size_t kWindow = 8;
  /// Multiplicative headroom on the estimate (1.1 = +10%).
  static constexpr double kHeadroom = 1.10;
  /// Fraction of total tmem always split equally as a floor, so idle VMs
  /// can absorb a burst while their estimate rebuilds.
  static constexpr double kFloorFraction = 0.05;

  std::string name() const override { return "wss-estimate"; }

  hyper::MmOut compute(const hyper::MemStats& stats,
                       const PolicyContext& ctx) override;

  /// Current working-set estimate for a VM (pages), for tests/inspection.
  PageCount estimate(VmId vm) const;

 private:
  // Per-VM window of (tmem_used + unserved demand) samples.
  std::unordered_map<VmId, std::deque<PageCount>> windows_;
};

}  // namespace smartmem::mm
