// Policy construction from a declarative spec, used by scenarios, benches
// and the example CLIs ("--policy smart --p 0.75").
#pragma once

#include <string>

#include "mm/policy.hpp"
#include "mm/smart_policy.hpp"

namespace smartmem::mm {

enum class PolicyKind : std::uint8_t {
  kNoTmem,        // tmem disabled entirely (the paper's "no-tmem" baseline)
  kGreedy,        // Xen default, no MM
  kStatic,        // Algorithm 2
  kReconfStatic,  // Algorithm 3
  kSmart,         // Algorithm 4
  kSwapRate,      // extension
  kWss,           // extension: working-set-size estimation
};

struct PolicySpec {
  PolicyKind kind = PolicyKind::kGreedy;
  SmartPolicyConfig smart_config;  // used when kind == kSmart

  /// Human-readable label matching the paper's figures (e.g. "sm-0.75p").
  std::string label() const;

  /// True when a Memory Manager process should run at all.
  bool needs_manager() const {
    return kind != PolicyKind::kNoTmem && kind != PolicyKind::kGreedy;
  }

  static PolicySpec of(PolicyKind kind) {
    PolicySpec spec;
    spec.kind = kind;
    return spec;
  }
  static PolicySpec no_tmem() { return of(PolicyKind::kNoTmem); }
  static PolicySpec greedy() { return of(PolicyKind::kGreedy); }
  static PolicySpec static_alloc() { return of(PolicyKind::kStatic); }
  static PolicySpec reconf_static() { return of(PolicyKind::kReconfStatic); }
  static PolicySpec smart(double p_percent, PageCount threshold = 0) {
    PolicySpec spec = of(PolicyKind::kSmart);
    spec.smart_config = SmartPolicyConfig{p_percent, threshold};
    return spec;
  }
  static PolicySpec swap_rate() { return of(PolicyKind::kSwapRate); }
  static PolicySpec wss() { return of(PolicyKind::kWss); }

  /// Parses labels like "greedy", "static", "reconf", "smart" (P = 0.75),
  /// "smart:0.75", "swap-rate", "wss", "no-tmem". Throws
  /// std::invalid_argument on junk, including a malformed P.
  static PolicySpec parse(const std::string& text);
};

/// Reads the P of a "<policy>:<P>" spec: the whole text after the first
/// colon must be one number in (0, 100]. Throws std::invalid_argument
/// naming `spec` otherwise (trailing text, nan, inf, an empty P).
double parse_spec_percent(const std::string& spec);

/// Instantiates the policy object for a spec. Precondition:
/// spec.needs_manager().
PolicyPtr make_policy(const PolicySpec& spec);

}  // namespace smartmem::mm
