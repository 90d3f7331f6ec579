// Cluster scaling figure: the two-level capacity hierarchy at rack scale.
//
// Sweeps the node count (1/2/4/8/16) x the inter-node hop latency x the
// node-level policy, running the hot/cold cluster experiment: node 0 runs
// usemem (sustained demand far past its tmem), the others run a
// RAM-resident graph variant and sit on idle capacity. Under global-static every node is pinned at its
// physical share, so the hot node fails puts exactly as a lone server
// would; under global-smart the GlobalManager shrinks the cold nodes'
// quotas, grows the hot node's past its physical capacity, and remote-tmem
// lending turns the difference into borrowed frames. The printed table and
// CSV report aggregate failed puts, remote traffic and makespan per cell.
//
// A 1-node cluster wires no rack machinery at all, so `--nodes 1` output is
// byte-identical to `--single` (the plain VirtualNode path) — CI diffs the
// two CSVs.
//
// Flags go through bench_common's one parser (--help lists them with their
// ranges): the shared --scale/--reps/--seed/--jobs/--csv with their shared
// ranges, and
//   --nodes <n>              restrict the sweep to one node count (1-64)
//   --cluster-policy <p>     restrict to one policy (global-static,
//                            global-smart[:P]; default sweeps both)
//   --cluster-latency-x <f>  restrict to one inter-node latency multiplier
//                            (default sweeps x1 and x10 of the 5 ms hop;
//                            it stretches the 40 us lending hops too)
//   --cluster-interval-x <f> global decision interval, in node sampling
//                            intervals (default 2)
//   --cluster-no-lending     disable remote-tmem lending
//   --single                 run the plain single-node path and emit rows
//                            with the same labels a 1-node cluster gets
//                            (excludes --nodes)
//   --trace-out/--metrics-out/--audit-out   one extra observed 2-node (or
//                            --nodes) run with the obs pillars enabled
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/experiment.hpp"
#include "cluster/global_policy.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/scenario.hpp"

namespace {

using namespace smartmem;

struct Options {
  double scale = 0.125;
  std::size_t reps = 3;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  std::string csv_dir;
  std::size_t nodes = 0;  // 0 = sweep {1, 2, 4, 8, 16}
  std::string cluster_policy;  // empty = sweep both
  double latency_x = 0.0;      // 0 = sweep {1, 10}
  double interval_x = 2.0;
  bool lending = true;
  bool single = false;
  std::string trace_out;
  std::string metrics_out;
  std::string audit_out;
};

Options parse(int argc, char** argv) {
  Options o;
  bench::parse_flags(
      argc, argv,
      {bench::scale_flag(o.scale),
       bench::reps_flag(o.reps),
       bench::seed_flag(o.seed),
       bench::jobs_flag(o.jobs),
       bench::csv_flag(o.csv_dir),
       {"--nodes", "<n>", "one node count in [1, 64] (default sweep "
                          "1,2,4,8,16)",
        bench::count(o.nodes, 1, 64)},
       {"--cluster-policy", "<p>",
        "global-static|global-smart[:P] (default sweeps both)",
        bench::validated_text(o.cluster_policy, cluster::parse_global_policy)},
       {"--cluster-latency-x", "<f>",
        "one inter-node latency multiplier in [0.01, 1000] (default sweep "
        "1,10)",
        bench::real(o.latency_x, 0.01, 1000.0)},
       {"--cluster-interval-x", "<f>",
        "global decision interval in node intervals, in [0.01, 1000] "
        "(default 2)",
        bench::real(o.interval_x, 0.01, 1000.0)},
       {"--cluster-no-lending", "", "disable remote-tmem lending",
        bench::assign(o.lending, false)},
       {"--single", "", "plain single-node path, rows labelled as a 1-node "
                        "cluster",
        bench::assign(o.single, true), [&o] { return o.nodes == 0; },
        "no --nodes (it runs one node)"},
       {"--trace-out", "<f>", "Perfetto trace of one extra observed run",
        bench::text(o.trace_out)},
       {"--metrics-out", "<f>", "metrics of the observed run (JSONL)",
        bench::text(o.metrics_out)},
       {"--audit-out", "<f>", "decision audit of the observed run (JSONL)",
        bench::text(o.audit_out)}});
  return o;
}

struct Cell {
  std::size_t nodes = 1;
  double lat_x = 1.0;
  std::string policy;
};

/// The plain single-node path (core::build_node + run), extracted into the
/// same result shape a 1-node cluster produces so the CSV rows match
/// byte-for-byte.
cluster::ClusterRunResult run_single_node(const Options& o,
                                          std::uint64_t seed) {
  const core::ScenarioSpec spec = core::usemem_scenario(o.scale);
  auto node = core::build_node(spec, mm::PolicySpec::smart(25.0), seed);
  const SimTime end = node->run(spec.deadline);

  cluster::ClusterRunResult out;
  out.makespan_s = to_seconds(end);
  cluster::ClusterNodeResult r;
  r.node = 0;
  r.scenario = spec.name;
  const hyper::Hypervisor& hyp = node->hypervisor();
  for (VmId vm : node->vm_ids()) {
    const hyper::VmData& vd = hyp.vm_data(vm);
    r.failed_puts += vd.cumul_puts_failed;
    r.puts_total += vd.cumul_puts_total;
    r.puts_succ += vd.cumul_puts_succ;
    if (node->runner(vm).started()) {
      r.runtime_s =
          std::max(r.runtime_s, to_seconds(node->runner(vm).finish_time()));
    }
  }
  r.remote_puts = hyp.remote_puts();
  r.remote_gets = hyp.remote_gets();
  r.final_quota = hyp.node_quota();
  r.phys_tmem = hyp.total_tmem();
  out.aggregate_failed_puts = r.failed_puts;
  out.nodes.push_back(std::move(r));
  return out;
}

cluster::ClusterRunResult run_cell(const Options& o, const Cell& cell,
                                   std::uint64_t seed) {
  if (o.single) return run_single_node(o, seed);
  cluster::ClusterExperimentConfig cfg;
  cfg.nodes = cell.nodes;
  cfg.scale = o.scale;
  cfg.seed = seed;
  cfg.global_policy = cell.policy;
  cfg.lending = o.lending;
  cfg.internode_latency_x = cell.lat_x;
  cfg.global_interval_x = o.interval_x;
  return cluster::run_cluster_scenario(cfg);
}

std::string quota_str(PageCount q) {
  if (q == kUnlimitedTarget) return "-1";
  return std::to_string(q);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  std::vector<std::size_t> node_counts =
      o.nodes != 0 ? std::vector<std::size_t>{o.nodes}
                   : std::vector<std::size_t>{1, 2, 4, 8, 16};
  if (o.single) node_counts = {1};
  const std::vector<double> lat_sweep =
      o.latency_x != 0.0 ? std::vector<double>{o.latency_x}
                         : std::vector<double>{1.0, 10.0};
  const std::vector<std::string> policy_sweep =
      !o.cluster_policy.empty()
          ? std::vector<std::string>{o.cluster_policy}
          : std::vector<std::string>{"global-static", "global-smart"};

  // A 1-node cluster ignores the rack knobs entirely, so only the first
  // (policy, latency) combination is run at n=1 — and --single emits rows
  // with those same labels, keeping the two CSVs diffable.
  std::vector<Cell> cells;
  for (const std::size_t n : node_counts) {
    for (const std::string& policy : policy_sweep) {
      for (const double lat : lat_sweep) {
        cells.push_back(Cell{n, lat, policy});
        if (n == 1) break;
      }
      if (n == 1) break;
    }
  }

  std::printf("=== cluster scaling: hot node + cold donors "
              "(usemem / cluster-cold, smart P=25%%) ===\n");
  std::printf("%zu cell(s) x %zu rep(s), scale %g, lending %s\n\n",
              cells.size(), o.reps, o.scale, o.lending ? "on" : "off");

  // Per-run wall-clock is printed to stdout only — never to the CSV, which
  // must stay byte-identical across runs.
  std::vector<cluster::ClusterRunResult> runs(cells.size() * o.reps);
  std::vector<double> wall(runs.size());
  parallel_for_each(o.jobs, runs.size(), [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    runs[i] = run_cell(o, cells[i / o.reps], o.seed + (i % o.reps));
    wall[i] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  });

  std::printf("%-6s %-14s %-6s %16s %12s %12s %12s %10s %9s\n", "nodes",
              "policy", "lat", "failed_puts", "remote_puts", "remote_gets",
              "borrowed_pk", "makespan", "wall");
  std::vector<double> mean_failed(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    RunningStats failed, makespan, wall_s;
    std::uint64_t rputs = 0, rgets = 0;
    PageCount peak = 0;
    for (std::size_t rep = 0; rep < o.reps; ++rep) {
      const cluster::ClusterRunResult& r = runs[c * o.reps + rep];
      failed.add(static_cast<double>(r.aggregate_failed_puts));
      makespan.add(r.makespan_s);
      wall_s.add(wall[c * o.reps + rep]);
      for (const auto& nr : r.nodes) {
        rputs += nr.remote_puts;
        rgets += nr.remote_gets;
      }
      peak = std::max(peak, r.peak_borrowed);
    }
    mean_failed[c] = failed.mean();
    std::printf(
        "%-6zu %-14s x%-5g %16.0f %12llu %12llu %12llu %9.1fs %8.2fs\n",
        cells[c].nodes, cells[c].policy.c_str(), cells[c].lat_x, failed.mean(),
        static_cast<unsigned long long>(rputs / o.reps),
        static_cast<unsigned long long>(rgets / o.reps),
        static_cast<unsigned long long>(peak), makespan.mean(), wall_s.mean());
  }

  // Headline: does the node-level Algorithm 4 beat the static split where
  // both ran at the same (nodes, latency) point?
  for (std::size_t a = 0; a < cells.size(); ++a) {
    if (cells[a].policy != "global-static" || cells[a].nodes < 2) continue;
    for (std::size_t b = 0; b < cells.size(); ++b) {
      if (cells[b].nodes != cells[a].nodes ||
          cells[b].lat_x != cells[a].lat_x ||
          cells[b].policy.rfind("global-smart", 0) != 0) {
        continue;
      }
      const double st = mean_failed[a];
      const double sm = mean_failed[b];
      if (st > 0) {
        std::printf("\n%zu nodes, lat x%g: global-smart aggregate failed "
                    "puts %.0f vs global-static %.0f (%+.1f%%)\n",
                    cells[a].nodes, cells[a].lat_x, sm, st,
                    (sm - st) / st * 100.0);
      }
    }
  }

  if (!o.csv_dir.empty()) {
    const std::string path = o.csv_dir + "/fig_cluster_scaling.csv";
    std::ofstream csv(path);
    csv << "nodes,latency_x,global_policy,lending,rep,node,"
           "scenario,failed_puts,puts_total,puts_succ,runtime_s,remote_puts,"
           "remote_gets,final_quota,makespan_s\n";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t rep = 0; rep < o.reps; ++rep) {
        const cluster::ClusterRunResult& r = runs[c * o.reps + rep];
        for (const auto& nr : r.nodes) {
          char line[512];
          std::snprintf(line, sizeof line,
                        "%zu,%g,%s,%d,%zu,%u,%s,%llu,%llu,%llu,%.6f,%llu,"
                        "%llu,%s,%.6f\n",
                        cells[c].nodes, cells[c].lat_x,
                        cells[c].policy.c_str(), o.lending ? 1 : 0, rep,
                        nr.node, nr.scenario.c_str(),
                        static_cast<unsigned long long>(nr.failed_puts),
                        static_cast<unsigned long long>(nr.puts_total),
                        static_cast<unsigned long long>(nr.puts_succ),
                        nr.runtime_s,
                        static_cast<unsigned long long>(nr.remote_puts),
                        static_cast<unsigned long long>(nr.remote_gets),
                        quota_str(nr.final_quota).c_str(), r.makespan_s);
          csv << line;
        }
      }
    }
    std::printf("\nwrote %s\n", path.c_str());
  }

  if (!o.trace_out.empty() || !o.metrics_out.empty() || !o.audit_out.empty()) {
    // One extra observed run: rack observability needs >= 2 nodes, so the
    // GlobalManager/lending/fabric pillars actually record something.
    cluster::ClusterExperimentConfig cfg;
    cfg.nodes = std::max<std::size_t>(o.nodes != 0 ? o.nodes : 2, 2);
    cfg.scale = o.scale;
    cfg.seed = o.seed;
    cfg.global_policy = !o.cluster_policy.empty()
                            ? o.cluster_policy
                            : std::string("global-smart");
    cfg.lending = o.lending;
    cfg.internode_latency_x = o.latency_x != 0.0 ? o.latency_x : 1.0;
    cfg.global_interval_x = o.interval_x;
    cfg.obs.trace_out = o.trace_out;
    cfg.obs.metrics_out = o.metrics_out;
    cfg.obs.audit_out = o.audit_out;
    std::printf("\nobserved run: %zu nodes, %s\n", cfg.nodes,
                cfg.global_policy.c_str());
    cluster::run_cluster_scenario(cfg);
    if (!o.trace_out.empty()) std::printf("  trace:   %s\n", o.trace_out.c_str());
    if (!o.metrics_out.empty())
      std::printf("  metrics: %s\n", o.metrics_out.c_str());
    if (!o.audit_out.empty()) std::printf("  audit:   %s\n", o.audit_out.c_str());
  }
  return 0;
}
