#include "cluster/global_policy.hpp"

#include <cmath>
#include <stdexcept>

#include "common/strfmt.hpp"
#include "mm/policy_factory.hpp"

namespace smartmem::cluster {

namespace {

/// Grounds an unlimited quota to an equal share so the relative arithmetic
/// below is well-defined (the same grounding SmartPolicy applies to fresh
/// VM targets).
double grounded_quota(PageCount quota, double cluster_tmem,
                      std::size_t node_count) {
  if (quota == kUnlimitedTarget) {
    return cluster_tmem / static_cast<double>(node_count);
  }
  return static_cast<double>(quota);
}

void audit_node(obs::PolicyAuditScratch* audit, const NodeStats& ns,
                const char* verdict, const char* condition, double before,
                double after) {
  if (audit == nullptr) return;
  obs::VmVerdict v;
  v.vm = ns.node;  // node id in the vm slot; scope="cluster" disambiguates
  v.verdict = verdict;
  v.condition = condition;
  v.target_before = static_cast<PageCount>(before);
  v.target_after = static_cast<PageCount>(after);
  v.failed_puts = ns.failed_puts();
  v.tmem_used = ns.used;
  v.slack_pages = before - static_cast<double>(ns.used);
  audit->vms.push_back(v);
}

}  // namespace

std::string GlobalStaticPolicy::name() const { return "global-static"; }

std::vector<NodeQuota> GlobalStaticPolicy::compute(
    const std::vector<NodeStats>& stats, const GlobalPolicyContext& ctx) {
  std::vector<NodeQuota> out;
  out.reserve(stats.size());
  if (ctx.audit != nullptr) ctx.audit->vms.reserve(stats.size());
  const PageCount share =
      stats.empty() ? 0 : ctx.cluster_tmem / stats.size();
  for (const NodeStats& ns : stats) {
    out.push_back({ns.node, share});
    audit_node(ctx.audit, ns, "hold", "gstatic:equal_share",
               grounded_quota(ns.quota, static_cast<double>(ctx.cluster_tmem),
                              stats.size()),
               static_cast<double>(share));
  }
  return out;
}

GlobalSmartPolicy::GlobalSmartPolicy(GlobalSmartConfig config)
    : config_(config) {
  if (!(config_.p_percent > 0.0 && config_.p_percent <= 100.0)) {
    throw std::invalid_argument("GlobalSmartPolicy: P must be in (0, 100]");
  }
}

std::string GlobalSmartPolicy::name() const {
  return strfmt("global-smart(P=%.2f%%)", config_.p_percent);
}

std::vector<NodeQuota> GlobalSmartPolicy::compute(
    const std::vector<NodeStats>& stats, const GlobalPolicyContext& ctx) {
  const auto cluster_tmem = static_cast<double>(ctx.cluster_tmem);
  const auto threshold =
      static_cast<PageCount>(config_.p_percent / 100.0 * cluster_tmem);

  std::vector<NodeQuota> out;
  out.reserve(stats.size());
  double sum_quotas = 0.0;
  obs::PolicyAuditScratch* audit = ctx.audit;
  if (audit != nullptr) audit->vms.reserve(stats.size());

  for (const NodeStats& ns : stats) {
    const double curr = grounded_quota(ns.quota, cluster_tmem, stats.size());
    const std::uint64_t failed_puts = ns.failed_puts();
    const double difference = curr - static_cast<double>(ns.used);
    const char* verdict = "hold";
    const char* condition = "galg:slack<=threshold";
    double quota;
    if (ns.puts_total == 0 && failed_puts == 0) {
      // No tmem traffic this interval: the roll-up carries no evidence
      // either way (the node may simply not have ramped up yet), so the
      // slack test would misread warm-up idleness as reclaimable capacity
      // and crush a node right before its demand spike. Hold; the Eq. 2
      // renormalization below still squeezes idle holders proportionally
      // when active nodes grow.
      quota = curr;
      condition = "galg:no_activity";
    } else if (failed_puts > 0) {
      // The node hit its ceiling during the last interval; grant it P% of
      // the rack's pooled capacity more.
      quota = curr + config_.p_percent * cluster_tmem / 100.0;
      verdict = "grow";
      condition = "galg:failed_puts>0";
    } else if (difference > static_cast<double>(threshold)) {
      // Shrink only past the threshold, to avoid oscillation — the freed
      // entitlement is what the renormalization below hands to growers,
      // and (via lending) what donors host borrowers in.
      quota = (100.0 - config_.p_percent) * curr / 100.0;
      verdict = "shrink";
      condition = "galg:slack>threshold";
    } else {
      quota = curr;
    }
    out.push_back({ns.node, static_cast<PageCount>(quota)});
    sum_quotas += quota;
    audit_node(audit, ns, verdict, condition, curr, quota);
  }

  // Equation 2 one level up: proportional scale-down so the grants never
  // promise more than the rack physically has.
  if (sum_quotas > cluster_tmem && sum_quotas > 0.0) {
    const double factor = cluster_tmem / sum_quotas;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].quota = static_cast<PageCount>(
          std::floor(static_cast<double>(out[i].quota) * factor));
      if (audit != nullptr) {
        audit->vms[i].target_after = out[i].quota;
        audit->vms[i].renormalized = true;
      }
    }
    if (audit != nullptr) {
      audit->renormalized = true;
      audit->renorm_factor = factor;
    }
  }
  return out;
}

GlobalPolicyPtr parse_global_policy(const std::string& text) {
  if (text == "global-static") {
    return std::make_unique<GlobalStaticPolicy>();
  }
  if (text == "global-smart") {
    return std::make_unique<GlobalSmartPolicy>();
  }
  if (text.rfind("global-smart:", 0) == 0) {
    GlobalSmartConfig cfg;
    cfg.p_percent = mm::parse_spec_percent(text);
    return std::make_unique<GlobalSmartPolicy>(cfg);
  }
  throw std::invalid_argument(
      "unknown global policy spec: " + text +
      " (known policies: global-static, global-smart[:P])");
}

}  // namespace smartmem::cluster
