// Fleet scaling figure: the control plane at nodes x VMs/node scale.
//
// Sweeps the fleet geometry (node count x tenants per node) x the control-
// plane encoding (full-vector vs DESIGN §12 delta framing) under the
// multi-tenant fleet workload: zipf-ranked tenant intensity (node 0 holds
// the hottest tenants), staggered arrivals, YCSB-style phase mixes. The
// simulated outcome (failed puts, makespan, decisions) is byte-identical
// between the two encodings — the sweep isolates what the encodings cost:
// control-plane payload bytes per sampling interval, resync counts, and
// the suppression counters, all reported in the trailing CSV columns.
//
// CSV layout contract (checked by CI):
//   - columns 1-9 (nodes..makespan_s) are encoding-independent: a
//     `--fleet-encoding delta` run and a `--fleet-encoding full` run md5
//     to the same value after `cut -d, -f1-9`.
//   - `full` is delta framing at resync 1: `--fleet-encoding delta
//     --fleet-resync 1` reproduces a `--fleet-encoding full` run in every
//     column but `encoding` (10).
//   - wall-clock and the mm_decide_ns probe are printed to stdout only.
//
// Flags go through bench_common's one parser (--help lists them with their
// ranges): the shared --scale/--reps/--seed/--jobs/--csv with their shared
// ranges, and
//   --fleet-nodes n          restrict to one node count (default sweep 2,4,8)
//   --fleet-vms n            tenants per node (default 8)
//   --fleet-skew f           zipf exponent of tenant intensity (default 0.8)
//   --fleet-mix m            read-heavy | balanced | write-heavy
//   --fleet-policy p         global-static | global-smart[:P]
//   --fleet-encoding e       delta | full | both (default both)
//   --fleet-resync n         delta resync cadence (default 16; full = 1, so
//                            it needs an encoding that runs delta cells)
//   --fleet-no-lending       disable remote-tmem lending
//   --fleet-lending-heavy    hot-node/cold-donor geometry (node 0 spills at
//                            1.6x usable RAM, others fit at 0.55x) so the
//                            borrow path actually runs; with
//                            --fleet-no-lending it is the no-lending baseline
//   --fleet-lend-cache n     borrower-side cache capacity in pages (0 = off)
//   --fleet-lend-rtt-x f     multiply the lending-hop wire latencies
//   --fleet-lend-loss p      per-message loss probability on both lend hops
//   --fleet-lend-reorder p   per-message reorder probability on both hops
//   --fleet-lend-outage-from-s s --fleet-lend-outage-dur-s d
//                            outage window [s, s + d) on both lend hops; the
//                            two flags go together and d must be above 0
//                            (the lend-plane flags need lending on; runs
//                            with lending on also write fleet_lending.csv
//                            with --csv: deterministic columns only)
//   --profile                engine self-profile: per-shard busy/injection
//                            table + bottleneck attribution (stdout;
//                            fleet_profile.csv with --csv). Wall-clock only —
//                            fig_fleet_scaling.csv stays byte-identical.
//   --trace-sample n         keep 1-in-n hot-path spans in the observed run
//                            (needs --trace-out)
//   --trace-out/--metrics-out/--audit-out f
//                            one extra observed run (first cell geometry)
//                            exporting the requested pillars; feed the
//                            metrics file to obs_inspect.py fleet-report
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/fleet.hpp"
#include "cluster/global_policy.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace smartmem;

struct Options {
  double scale = 0.125;
  std::size_t reps = 2;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  std::string csv_dir;
  std::size_t nodes = 0;  // 0 = sweep {2, 4, 8}
  std::size_t vms = 8;
  double skew = 0.8;
  workloads::FleetMix mix = workloads::FleetMix::kBalanced;
  std::string policy = "global-smart";
  std::string encoding = "both";  // delta | full | both
  std::uint64_t resync = 16;
  bool lending = true;
  bool lending_heavy = false;
  std::uint64_t lend_cache = 0;
  double lend_rtt_x = 1.0;
  double lend_loss = 0.0;
  double lend_reorder = 0.0;
  double lend_outage_from_s = -1.0;
  double lend_outage_dur_s = 0.0;
  bool profile = false;
  std::uint64_t trace_sample = 1;
  std::string trace_out;
  std::string metrics_out;
  std::string audit_out;
};

Options parse(int argc, char** argv) {
  Options o;
  // The lend-plane flags shape a wire that only runs with lending on.
  const auto lending = [&o] { return o.lending; };
  const char* const kLending = "lending on (no --fleet-no-lending)";
  bench::parse_flags(
      argc, argv,
      {bench::scale_flag(o.scale),
       bench::reps_flag(o.reps),
       bench::seed_flag(o.seed),
       bench::jobs_flag(o.jobs),
       bench::csv_flag(o.csv_dir),
       {"--fleet-nodes", "<n>",
        "one node count in [2, 256] (default sweep 2,4,8)",
        bench::count(o.nodes, 2, 256)},
       {"--fleet-vms", "<n>", "tenants per node in [1, 256] (default 8)",
        bench::count(o.vms, 1, 256)},
       {"--fleet-skew", "<f>",
        "zipf exponent of tenant intensity in [0, 4] (default 0.8)",
        bench::real(o.skew, 0.0, 4.0)},
       {"--fleet-mix", "<m>", "read-heavy|balanced|write-heavy (default "
                              "balanced)",
        [&o](const char* t) { return workloads::parse_fleet_mix(t, o.mix); }},
       {"--fleet-policy", "<p>",
        "global-static|global-smart[:P] (default global-smart)",
        bench::validated_text(o.policy, cluster::parse_global_policy)},
       {"--fleet-encoding", "<e>", "delta|full|both (default both)",
        [&o](const char* t) {
          const std::string e = t;
          if (e != "delta" && e != "full" && e != "both") return false;
          o.encoding = e;
          return true;
        }},
       {"--fleet-resync", "<n>",
        "delta resync cadence in [1, 1048576] (default 16; full = 1)",
        bench::count(o.resync, 1, 1u << 20),
        [&o] { return o.encoding != "full"; },
        "--fleet-encoding delta or both"},
       {"--fleet-no-lending", "", "disable remote-tmem lending",
        bench::assign(o.lending, false)},
       {"--fleet-lending-heavy", "",
        "hot-node/cold-donor geometry so the borrow path runs",
        bench::assign(o.lending_heavy, true)},
       {"--fleet-lend-cache", "<n>",
        "borrower-side cache pages in [0, 16777216] (default 0 = off)",
        bench::count(o.lend_cache, 0, 1u << 24), lending, kLending},
       {"--fleet-lend-rtt-x", "<f>",
        "multiply the lending-hop latencies, in [0.01, 1000] (default 1)",
        bench::real(o.lend_rtt_x, 0.01, 1000.0), lending, kLending},
       {"--fleet-lend-loss", "<p>",
        "per-message loss probability on both lend hops, in [0, 1]",
        bench::real(o.lend_loss, 0.0, 1.0), lending, kLending},
       {"--fleet-lend-reorder", "<p>",
        "per-message reorder probability on both lend hops, in [0, 1]",
        bench::real(o.lend_reorder, 0.0, 1.0), lending, kLending},
       {"--fleet-lend-outage-from-s", "<s>",
        "outage start in [0, 1e6] s on both lend hops",
        bench::real(o.lend_outage_from_s, 0.0, 1e6),
        [&o] { return o.lending && o.lend_outage_dur_s > 0.0; },
        "--fleet-lend-outage-dur-s, with lending on"},
       {"--fleet-lend-outage-dur-s", "<d>", "outage length in [1e-6, 1e6] s",
        bench::real(o.lend_outage_dur_s, 1e-6, 1e6),
        [&o] { return o.lending && o.lend_outage_from_s >= 0.0; },
        "--fleet-lend-outage-from-s, with lending on"},
       {"--profile", "", "engine self-profile (stdout; fleet_profile.csv)",
        bench::assign(o.profile, true)},
       {"--trace-sample", "<n>",
        "keep 1-in-n hot-path spans, n in [1, 1048576] (default 1)",
        bench::count(o.trace_sample, 1, 1u << 20),
        [&o] { return !o.trace_out.empty(); }, "--trace-out"},
       {"--trace-out", "<f>", "Perfetto trace of one extra observed run",
        bench::text(o.trace_out)},
       {"--metrics-out", "<f>", "metrics of the observed run (JSONL)",
        bench::text(o.metrics_out)},
       {"--audit-out", "<f>", "decision audit of the observed run (JSONL)",
        bench::text(o.audit_out)}});
  return o;
}

struct Cell {
  std::size_t nodes = 2;
  bool delta = false;
};

/// Applies the lending knobs shared by the measured grid and the observed
/// run.
void apply_lending(const Options& o, cluster::FleetExperimentConfig& cfg) {
  cfg.lending = o.lending;
  cfg.lending_heavy = o.lending_heavy;
  cfg.lending_async.cache_pages = o.lend_cache;
  cfg.lend_rtt_x = o.lend_rtt_x;
  cfg.lend_fault.loss_rate = o.lend_loss;
  cfg.lend_fault.reorder_rate = o.lend_reorder;
  if (o.lend_outage_from_s >= 0.0) {
    cfg.lend_fault.down_from = static_cast<SimTime>(
        o.lend_outage_from_s * static_cast<double>(kSecond));
    cfg.lend_fault.down_until = static_cast<SimTime>(
        (o.lend_outage_from_s + o.lend_outage_dur_s) *
        static_cast<double>(kSecond));
  }
}

cluster::FleetRunResult run_cell(const Options& o, const Cell& cell,
                                 std::uint64_t seed) {
  cluster::FleetExperimentConfig cfg;
  cfg.nodes = cell.nodes;
  cfg.vms_per_node = o.vms;
  cfg.skew = o.skew;
  cfg.mix = o.mix;
  cfg.global_policy = o.policy;
  apply_lending(o, cfg);
  cfg.resync_every = cell.delta ? o.resync : 1;
  cfg.scale = o.scale;
  cfg.seed = seed;
  cfg.profile = o.profile;
  return cluster::run_fleet_scenario(cfg);
}

double per_interval(std::uint64_t bytes, std::uint64_t intervals) {
  return intervals == 0 ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(intervals);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  const std::vector<std::size_t> node_counts =
      o.nodes != 0 ? std::vector<std::size_t>{o.nodes}
                   : std::vector<std::size_t>{2, 4, 8};
  std::vector<bool> encodings;
  if (o.encoding == "full" || o.encoding == "both") encodings.push_back(false);
  if (o.encoding == "delta" || o.encoding == "both") encodings.push_back(true);

  std::vector<Cell> cells;
  for (const std::size_t n : node_counts) {
    for (const bool d : encodings) cells.push_back(Cell{n, d});
  }

  std::printf("=== fleet scaling: %zu tenants/node, skew %g, mix %s, %s ===\n",
              o.vms, o.skew, workloads::to_string(o.mix), o.policy.c_str());
  std::printf("%zu cell(s) x %zu rep(s), scale %g, resync %llu, "
              "lending %s\n\n",
              cells.size(), o.reps, o.scale,
              static_cast<unsigned long long>(o.resync),
              o.lending ? "on" : "off");

  // Wall-clock and the decide-ns probe go to stdout only — the CSV must
  // stay byte-identical across runs and machine speeds.
  std::vector<cluster::FleetRunResult> runs(cells.size() * o.reps);
  std::vector<double> wall(runs.size());
  parallel_for_each(o.jobs, runs.size(), [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    runs[i] = run_cell(o, cells[i / o.reps], o.seed + (i % o.reps));
    wall[i] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  });

  std::printf("%-6s %-5s %14s %13s %13s %12s %10s %12s %9s\n", "nodes",
              "enc", "failed_puts", "node_B/intvl", "rack_B/intvl",
              "mm_samples", "makespan", "decide_ns/d", "wall");
  std::vector<double> mean_bpi(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    RunningStats failed, bpi, rbpi, makespan, wall_s, decide;
    std::uint64_t samples = 0;
    for (std::size_t rep = 0; rep < o.reps; ++rep) {
      const cluster::FleetRunResult& r = runs[c * o.reps + rep];
      failed.add(static_cast<double>(r.aggregate_failed_puts));
      bpi.add(per_interval(r.node_control_bytes, r.mm_samples));
      rbpi.add(per_interval(r.rack_control_bytes, r.gm_decisions));
      makespan.add(r.makespan_s);
      wall_s.add(wall[c * o.reps + rep]);
      if (r.mm_decides > 0) {
        decide.add(static_cast<double>(r.mm_decide_ns) /
                   static_cast<double>(r.mm_decides));
      }
      samples += r.mm_samples;
    }
    mean_bpi[c] = bpi.mean();
    std::printf("%-6zu %-5s %14.0f %13.1f %13.1f %12llu %9.1fs %12.0f %8.2fs\n",
                cells[c].nodes, cells[c].delta ? "delta" : "full",
                failed.mean(), bpi.mean(), rbpi.mean(),
                static_cast<unsigned long long>(samples / o.reps),
                makespan.mean(), decide.mean(), wall_s.mean());
  }

  if (o.profile) {
    // Engine self-profile (wall-clock — stdout and fleet_profile.csv only;
    // the outcome CSV above must stay byte-identical with --profile on).
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const cluster::FleetRunResult& r = runs[c * o.reps];  // rep 0
      if (r.profile.empty()) continue;
      std::printf("\n--- profile: %zu nodes, %s (rep 0) ---\n",
                  cells[c].nodes, cells[c].delta ? "delta" : "full");
      std::printf("%-6s %10s %10s %9s %9s %7s\n", "shard", "busy_ms",
                  "events", "inj_out", "inj_in", "crit_w");
      // Busiest first; at 64 nodes the full table is noise, so cap at the
      // top 10 — the CSV keeps every shard.
      std::vector<const cluster::FleetRunResult::ShardProfileRow*> rows;
      rows.reserve(r.profile.size());
      for (const auto& row : r.profile) rows.push_back(&row);
      std::sort(rows.begin(), rows.end(),
                [](const auto* a, const auto* b) {
                  return a->busy_ms > b->busy_ms;
                });
      const std::size_t shown = std::min<std::size_t>(rows.size(), 10);
      for (std::size_t s = 0; s < shown; ++s) {
        const auto& row = *rows[s];
        std::printf("%-6s %10.2f %10llu %9llu %9llu %7llu\n",
                    row.label.c_str(), row.busy_ms,
                    static_cast<unsigned long long>(row.events),
                    static_cast<unsigned long long>(row.injections_out),
                    static_cast<unsigned long long>(row.injections_in),
                    static_cast<unsigned long long>(row.critical_windows));
      }
      if (shown < rows.size()) {
        std::printf("  ... %zu more shards (see fleet_profile.csv)\n",
                    rows.size() - shown);
      }
      std::printf("bottleneck: %s | windows %llu, idle-skip %.1fs sim, "
                  "critical-path %.1fms, drain %.2fms, hook %.2fms\n",
                  r.bottleneck.c_str(),
                  static_cast<unsigned long long>(r.engine_windows),
                  r.engine_idle_skip_s, r.engine_window_wall_ms,
                  r.engine_drain_ms, r.engine_hook_ms);
    }
  }

  if (o.lending) {
    // Lending summary (all simulation-visible, so deterministic): one line
    // per cell so the smoke job can grep borrow_placements straight off
    // stdout as well as out of fleet_lending.csv.
    std::printf("\n%-6s %-5s %9s %9s %9s %8s %8s %8s %8s %9s %9s\n", "nodes",
                "enc", "borrows", "fab_reqs", "retries", "giveups", "c_hits",
                "c_miss", "c_inval", "put_rtt", "get_rtt");
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::uint64_t borrows = 0, reqs = 0, retries = 0, giveups = 0;
      std::uint64_t chits = 0, cmiss = 0, cinval = 0;
      RunningStats put_rtt, get_rtt;
      for (std::size_t rep = 0; rep < o.reps; ++rep) {
        const cluster::FleetRunResult& r = runs[c * o.reps + rep];
        borrows += r.borrow_placements;
        reqs += r.fabric_requests;
        retries += r.fabric_retries;
        giveups += r.fabric_give_ups;
        chits += r.cache_hits;
        cmiss += r.cache_misses;
        cinval += r.cache_invalidations;
        put_rtt.add(r.put_rtt_mean_us);
        get_rtt.add(r.get_rtt_mean_us);
      }
      std::printf(
          "%-6zu %-5s %9llu %9llu %9llu %8llu %8llu %8llu %8llu %8.1fu %8.1fu\n",
          cells[c].nodes, cells[c].delta ? "delta" : "full",
          static_cast<unsigned long long>(borrows),
          static_cast<unsigned long long>(reqs),
          static_cast<unsigned long long>(retries),
          static_cast<unsigned long long>(giveups),
          static_cast<unsigned long long>(chits),
          static_cast<unsigned long long>(cmiss),
          static_cast<unsigned long long>(cinval), put_rtt.mean(),
          get_rtt.mean());
    }
  }

  // Headline: the delta encoding's steady-state saving where both
  // encodings ran at the same geometry.
  for (std::size_t a = 0; a < cells.size(); ++a) {
    if (cells[a].delta) continue;
    for (std::size_t b = 0; b < cells.size(); ++b) {
      if (!cells[b].delta || cells[b].nodes != cells[a].nodes) continue;
      if (mean_bpi[b] > 0.0) {
        std::printf("\n%zu nodes: delta control-plane bytes/interval %.1f vs "
                    "full %.1f (%.1fx saving)\n",
                    cells[a].nodes, mean_bpi[b], mean_bpi[a],
                    mean_bpi[a] / mean_bpi[b]);
      }
    }
  }

  if (!o.csv_dir.empty()) {
    const std::string path = o.csv_dir + "/fig_fleet_scaling.csv";
    std::ofstream csv(path);
    // Columns 1-9 are encoding-independent (delta-vs-full md5 cross-check
    // cuts to them); everything encoding-dependent rides at the end.
    csv << "nodes,vms_per_node,skew,mix,global_policy,"
           "rep,failed_puts,puts_total,makespan_s,"
           "encoding,puts_succ,node_control_bytes,rack_control_bytes,"
           "mm_samples,node_bytes_per_interval,stats_full_sends,"
           "targets_full_sends,rollups_suppressed,quota_sends_skipped,"
           "gm_clean_decides,borrow_placements,"
           "lending_failed_placements\n";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t rep = 0; rep < o.reps; ++rep) {
        const cluster::FleetRunResult& r = runs[c * o.reps + rep];
        char line[640];
        std::snprintf(
            line, sizeof line,
            "%zu,%zu,%g,%s,%s,%zu,%llu,%llu,%.6f,"
            "%s,%llu,%llu,%llu,%llu,%.3f,%llu,%llu,%llu,%llu,%llu,"
            "%llu,%llu\n",
            cells[c].nodes, o.vms, o.skew,
            workloads::to_string(o.mix), o.policy.c_str(), rep,
            static_cast<unsigned long long>(r.aggregate_failed_puts),
            static_cast<unsigned long long>(r.puts_total), r.makespan_s,
            cells[c].delta ? "delta" : "full",
            static_cast<unsigned long long>(r.puts_succ),
            static_cast<unsigned long long>(r.node_control_bytes),
            static_cast<unsigned long long>(r.rack_control_bytes),
            static_cast<unsigned long long>(r.mm_samples),
            per_interval(r.node_control_bytes, r.mm_samples),
            static_cast<unsigned long long>(r.stats_full_sends),
            static_cast<unsigned long long>(r.targets_full_sends),
            static_cast<unsigned long long>(r.rollups_suppressed),
            static_cast<unsigned long long>(r.quota_sends_skipped),
            static_cast<unsigned long long>(r.gm_clean_decides),
            static_cast<unsigned long long>(r.borrow_placements),
            static_cast<unsigned long long>(r.lending_failed_placements));
        csv << line;
      }
    }
    std::printf("\nwrote %s\n", path.c_str());

    if (o.lending) {
      // Separate artifact so the md5-checked fig_fleet_scaling.csv layout
      // stays lending-agnostic. Deliberately no wall-clock fields: the
      // whole file is deterministic.
      const std::string lpath = o.csv_dir + "/fleet_lending.csv";
      std::ofstream lcsv(lpath);
      lcsv << "nodes,encoding,rep,borrow_placements,failed_placements,"
              "borrow_hits,borrow_misses,recalls,failed_replacements,"
              "fabric_requests,fabric_retries,fabric_timeouts,"
              "fabric_give_ups,fabric_get_fallbacks,"
              "cache_hits,cache_misses,cache_invalidations,"
              "put_rtt_mean_us,get_rtt_mean_us,get_rtt_count\n";
      for (std::size_t c = 0; c < cells.size(); ++c) {
        for (std::size_t rep = 0; rep < o.reps; ++rep) {
          const cluster::FleetRunResult& r = runs[c * o.reps + rep];
          char line[512];
          std::snprintf(
              line, sizeof line,
              "%zu,%s,%zu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
              "%llu,%llu,%llu,%llu,%llu,%.3f,%.3f,%llu\n",
              cells[c].nodes, cells[c].delta ? "delta" : "full", rep,
              static_cast<unsigned long long>(r.borrow_placements),
              static_cast<unsigned long long>(r.lending_failed_placements),
              static_cast<unsigned long long>(r.borrow_hits),
              static_cast<unsigned long long>(r.borrow_misses),
              static_cast<unsigned long long>(r.lending_recalls),
              static_cast<unsigned long long>(r.lending_failed_replacements),
              static_cast<unsigned long long>(r.fabric_requests),
              static_cast<unsigned long long>(r.fabric_retries),
              static_cast<unsigned long long>(r.fabric_timeouts),
              static_cast<unsigned long long>(r.fabric_give_ups),
              static_cast<unsigned long long>(r.fabric_get_fallbacks),
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.cache_misses),
              static_cast<unsigned long long>(r.cache_invalidations),
              r.put_rtt_mean_us, r.get_rtt_mean_us,
              static_cast<unsigned long long>(r.get_rtt_count));
          lcsv << line;
        }
      }
      std::printf("wrote %s\n", lpath.c_str());
    }

    if (o.profile) {
      // Separate artifact on purpose: everything in here is wall-clock, so
      // it must never ride in the md5-checked outcome CSV.
      const std::string ppath = o.csv_dir + "/fleet_profile.csv";
      std::ofstream pcsv(ppath);
      pcsv << "nodes,encoding,rep,shard,busy_ms,events,injections_out,"
              "injections_in,critical_windows,bottleneck,windows,"
              "idle_skip_s,window_wall_ms,drain_ms,hook_ms\n";
      for (std::size_t c = 0; c < cells.size(); ++c) {
        for (std::size_t rep = 0; rep < o.reps; ++rep) {
          const cluster::FleetRunResult& r = runs[c * o.reps + rep];
          for (const auto& row : r.profile) {
            char line[512];
            std::snprintf(
                line, sizeof line,
                "%zu,%s,%zu,%s,%.3f,%llu,%llu,%llu,%llu,"
                "%s,%llu,%.3f,%.3f,%.3f,%.3f\n",
                cells[c].nodes, cells[c].delta ? "delta" : "full", rep,
                row.label.c_str(), row.busy_ms,
                static_cast<unsigned long long>(row.events),
                static_cast<unsigned long long>(row.injections_out),
                static_cast<unsigned long long>(row.injections_in),
                static_cast<unsigned long long>(row.critical_windows),
                r.bottleneck.c_str(),
                static_cast<unsigned long long>(r.engine_windows),
                r.engine_idle_skip_s, r.engine_window_wall_ms,
                r.engine_drain_ms, r.engine_hook_ms);
            pcsv << line;
          }
        }
      }
      std::printf("wrote %s\n", ppath.c_str());
    }
  }

  if (!o.trace_out.empty() || !o.metrics_out.empty() || !o.audit_out.empty()) {
    // One extra observed run at the first cell's geometry: the measured
    // grid above stays observability-free so its wall columns mean what
    // they say. The metrics export is what obs_inspect.py fleet-report
    // reads; delta encoding on so the delta-health telemetry is live.
    Cell cell = cells.front();
    for (const Cell& c : cells) {
      if (c.delta) { cell = c; break; }
    }
    cluster::FleetExperimentConfig cfg;
    cfg.nodes = cell.nodes;
    cfg.vms_per_node = o.vms;
    cfg.skew = o.skew;
    cfg.mix = o.mix;
    cfg.global_policy = o.policy;
    apply_lending(o, cfg);
    cfg.resync_every = cell.delta ? o.resync : 1;
    cfg.scale = o.scale;
    cfg.seed = o.seed;
    cfg.profile = o.profile;
    cfg.obs.trace_out = o.trace_out;
    cfg.obs.metrics_out = o.metrics_out;
    cfg.obs.audit_out = o.audit_out;
    cfg.obs.trace_sample_every = o.trace_sample;
    std::printf("\nobserved run: %zu nodes, %s encoding, trace-sample %llu\n",
                cfg.nodes, cell.delta ? "delta" : "full",
                static_cast<unsigned long long>(o.trace_sample));
    cluster::run_fleet_scenario(cfg);
    if (!o.trace_out.empty())
      std::printf("  trace:   %s\n", o.trace_out.c_str());
    if (!o.metrics_out.empty())
      std::printf("  metrics: %s\n", o.metrics_out.c_str());
    if (!o.audit_out.empty())
      std::printf("  audit:   %s\n", o.audit_out.c_str());
  }
  return 0;
}
