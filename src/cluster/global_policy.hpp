// Node-level capacity policies for the rack-level GlobalManager.
//
// The paper manages VMs within one node; ROADMAP's cluster item re-applies
// the same control structure one level up: the GlobalManager periodically
// receives per-node roll-ups (NodeStats) and computes one tmem quota per
// node, exactly as the Memory Manager computes one target per VM.
//
//   global-static   — every node gets an equal share of the rack's pooled
//                     capacity (the node-level analogue of the static
//                     policy; with homogeneous nodes this equals each
//                     node's physical capacity, i.e. no interference).
//   global-smart    — Algorithm 4 with nodes in place of VMs: grow a node's
//                     quota by P% of the rack capacity when it had failed
//                     puts last interval, shrink it to (100-P)% when its
//                     slack exceeds the threshold, then floor-renormalize
//                     (Equation 2) so the grants never exceed the rack.
//
// Audit verdict/condition strings are prefixed "galg:" (vs the per-VM
// "alg4:") so a grep over a decision log can tell the two levels apart.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/node_stats.hpp"
#include "obs/audit.hpp"

namespace smartmem::cluster {

/// One quota in a policy's output vector.
struct NodeQuota {
  NodeId node = 0;
  PageCount quota = kUnlimitedTarget;

  friend bool operator==(const NodeQuota&, const NodeQuota&) = default;
};

struct GlobalPolicyContext {
  /// Pooled rack capacity: the sum of every node's physical tmem.
  PageCount cluster_tmem = 0;
  /// Decision audit scratch; null when auditing is off. Verdicts use
  /// VmVerdict with `vm` carrying the NodeId.
  obs::PolicyAuditScratch* audit = nullptr;
};

/// Interface of a node-level policy. `stats` holds the latest roll-up per
/// node, sorted by node id; the output carries one quota per node in the
/// same order.
class GlobalPolicy {
 public:
  virtual ~GlobalPolicy() = default;
  virtual std::string name() const = 0;
  virtual std::vector<NodeQuota> compute(const std::vector<NodeStats>& stats,
                                         const GlobalPolicyContext& ctx) = 0;
};

using GlobalPolicyPtr = std::unique_ptr<GlobalPolicy>;

/// Equal static division of the rack capacity (floor per node).
class GlobalStaticPolicy final : public GlobalPolicy {
 public:
  std::string name() const override;
  std::vector<NodeQuota> compute(const std::vector<NodeStats>& stats,
                                 const GlobalPolicyContext& ctx) override;
};

struct GlobalSmartConfig {
  /// Algorithm 4's P, as a percentage of the rack capacity; also the
  /// shrink threshold, as P% of the rack capacity in pages.
  double p_percent = 25.0;
};

/// Algorithm 4 over nodes (see header comment).
class GlobalSmartPolicy final : public GlobalPolicy {
 public:
  explicit GlobalSmartPolicy(GlobalSmartConfig config = {});
  std::string name() const override;
  std::vector<NodeQuota> compute(const std::vector<NodeStats>& stats,
                                 const GlobalPolicyContext& ctx) override;

 private:
  GlobalSmartConfig config_;
};

/// Parses "global-static" or "global-smart[:P]" (P a percentage, e.g.
/// "global-smart:10"; the whole P must be a number in (0, 100]). Unknown
/// specs throw std::invalid_argument naming the known policies, a bad P
/// throws it naming the spec.
GlobalPolicyPtr parse_global_policy(const std::string& text);

}  // namespace smartmem::cluster
