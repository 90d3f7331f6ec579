// Node-wide observability root: one Observer bundles the three pillars —
// sim-time trace recorder, metrics registry and policy decision audit log —
// behind a single object the VirtualNode owns and threads into its
// components.
//
// The contract for the disabled path: when a pillar is off its accessor
// returns nullptr and instrumented code does nothing beyond one pointer
// test — no allocation, no formatting, no virtual dispatch — so every
// figure bench run with observability off is byte-identical to a build
// without this subsystem. Each Observer belongs to exactly one node (one
// simulation thread); parallel experiment fan-out gives every node its own
// Observer, so nothing here needs locks.
#pragma once

#include <memory>
#include <string>

#include "obs/audit.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace smartmem::obs {

struct ObsConfig {
  /// Export paths; empty = no file written. Setting a path enables the
  /// corresponding pillar.
  std::string trace_out;
  std::string metrics_out;  // ".csv" suffix switches JSONL -> CSV
  std::string audit_out;

  /// In-memory capture without export (tests and the overhead probe).
  bool capture_trace = false;
  bool capture_metrics = false;
  bool capture_audit = false;

  /// Runtime-selectable trace categories (kCat* bitmask).
  std::uint32_t trace_categories = kCatAll;
  /// Deterministic 1-in-N span sampling for the hot guest-path span
  /// families (TraceConfig::sample_every). 1 = keep every span.
  std::uint64_t trace_sample_every = 1;

  bool trace_enabled() const { return capture_trace || !trace_out.empty(); }
  bool metrics_enabled() const {
    return capture_metrics || !metrics_out.empty();
  }
  bool audit_enabled() const { return capture_audit || !audit_out.empty(); }
  bool any() const {
    return trace_enabled() || metrics_enabled() || audit_enabled();
  }

  /// Enables all three pillars in memory (no files).
  static ObsConfig capture_all() {
    ObsConfig cfg;
    cfg.capture_trace = true;
    cfg.capture_metrics = true;
    cfg.capture_audit = true;
    return cfg;
  }
};

class Observer {
 public:
  explicit Observer(ObsConfig config);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// nullptr when the pillar is disabled — the only check hot paths make.
  TraceRecorder* trace() { return trace_.get(); }
  Registry* registry() { return registry_.get(); }
  AuditLog* audit() { return audit_.get(); }
  const TraceRecorder* trace() const { return trace_.get(); }
  const Registry* registry() const { return registry_.get(); }
  const AuditLog* audit() const { return audit_.get(); }

  const ObsConfig& config() const { return config_; }

  /// Writes every pillar with a configured output path. Returns false and
  /// sets *err (first failure) if any export fails; the rest still run.
  bool export_all(std::string* err) const;

 private:
  ObsConfig config_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<Registry> registry_;
  std::unique_ptr<AuditLog> audit_;
};

}  // namespace smartmem::obs
