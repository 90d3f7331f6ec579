// High-level tmem management policy interface (Section III-E).
//
// A policy is a pure function from one memstats sample (plus recorded
// history) to a vector of per-VM tmem capacity targets. The MemoryManager
// invokes it once per sampling interval and forwards the output to the
// hypervisor only when it differs from what was last sent.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "hyper/memstats.hpp"
#include "mm/history.hpp"
#include "obs/audit.hpp"

namespace smartmem::mm {

struct PolicyContext {
  /// node_info.total_tmem — fixed for the lifetime of the node.
  PageCount total_tmem = 0;

  /// Sample history recorded by the MM (never null during compute()).
  const StatsHistory* history = nullptr;

  /// Read-only staleness of the sample being acted on, in sampling
  /// intervals: (delivery time - capture time) / the interval in effect at
  /// capture (MemStats::interval, falling back to the MM's configured
  /// interval for hand-built samples). 0.0 when the MM has no clock (tests
  /// driving on_stats directly). SmartPolicy's stale modes key off it; with
  /// them off (the default) no policy consults it and behaviour is
  /// unchanged.
  double stats_age_intervals = 0.0;

  /// Non-null when decision auditing is enabled. Policies record per-VM
  /// verdicts (with the Algorithm 4 condition that fired) here; policies
  /// that ignore it get a generic before/after diff synthesized by the MM.
  obs::PolicyAuditScratch* audit = nullptr;
};

class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Computes mm_out for this sample. An empty vector means "no targets"
  /// (nothing is sent to the hypervisor).
  virtual hyper::MmOut compute(const hyper::MemStats& stats,
                               const PolicyContext& ctx) = 0;

  /// Decisions this policy widened because the sample was stale. 0 for
  /// policies without a staleness mode; the MM exports it as the
  /// mm.stale_decisions counter.
  virtual std::uint64_t stale_decisions() const { return 0; }
};

using PolicyPtr = std::unique_ptr<Policy>;

}  // namespace smartmem::mm
