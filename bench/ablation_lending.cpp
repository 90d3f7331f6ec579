// Ablation: the lending fabric (DESIGN §15).
//
// Fixed lending-heavy fleet geometry (node 0's tenants spill far past RAM,
// the cold nodes' tenants fit outright, so the borrow path carries real
// traffic), swept over the three axes the fabric adds to the model:
//
//   wire speed   --  lend-hop RTT multiplier (1x = the RDMA-class
//                    40us/direction default, 4x = congested/oversubscribed)
//   fault profile --  none | loss (5% each way) | flaky (5% loss + 10%
//                    reorder) | outage (0.5s blackout mid-run)
//   borrower cache -- off (0 pages) vs on (--cache pages, default 64)
//
// The headline number is the cache effect: mean borrowed-get RTT with the
// cache on vs off at the default wire speed, fault-free (cache hits are
// local, costing 0us of fabric time).
//
// CSV contract: ablation_lending.csv holds simulation-visible columns only
// (no wall-clock), so two runs of the same flags md5 to the same file.
//
// Flags go through bench_common's one parser: the shared --scale/--reps/
// --seed/--jobs/--csv with their shared ranges, plus the fleet geometry
// (--nodes, --vms) and the cache-on cells' --cache; --help lists each with
// its range and default.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/fleet.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace smartmem;

struct Options {
  double scale = 0.0625;
  std::size_t reps = 1;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  std::string csv_dir;
  std::size_t nodes = 4;
  std::size_t vms = 4;
  std::uint64_t cache = 64;
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
       {"--nodes", "<n>", "fleet nodes in [2, 256] (default 4)",
        bench::count(o.nodes, 2, 256)},
       {"--vms", "<n>", "tenants per node in [1, 256] (default 4)",
        bench::count(o.vms, 1, 256)},
       {"--cache", "<pages>",
        "borrower cache of the cache-on cells, in [0, 16777216] (default 64)",
        bench::count(o.cache, 0, 1u << 24)}});
  return o;
}

struct Cell {
  std::string label;  // row name in the CSV and the stdout table
  double rtt_x = 1.0;
  std::string fault = "none";  // none | loss | flaky | outage
  std::uint64_t cache = 0;
};

comm::FaultSpec fault_for(const std::string& name) {
  comm::FaultSpec f;
  if (name == "loss") {
    f.loss_rate = 0.05;
  } else if (name == "flaky") {
    f.loss_rate = 0.05;
    f.reorder_rate = 0.10;
  } else if (name == "outage") {
    f.down_from = 2 * kSecond;
    f.down_until = 2 * kSecond + kSecond / 2;
  }
  return f;
}

cluster::FleetRunResult run_cell(const Options& o, const Cell& cell,
                                 std::uint64_t seed) {
  cluster::FleetExperimentConfig cfg;
  cfg.nodes = o.nodes;
  cfg.vms_per_node = o.vms;
  cfg.lending_heavy = true;
  cfg.resync_every = 16;
  cfg.scale = o.scale;
  cfg.seed = seed;
  cfg.lending_async.cache_pages = cell.cache;
  cfg.lend_rtt_x = cell.rtt_x;
  cfg.lend_fault = fault_for(cell.fault);
  return cluster::run_fleet_scenario(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  std::vector<Cell> cells;
  for (const double rtt_x : {1.0, 4.0}) {
    for (const char* fault : {"none", "loss", "flaky", "outage"}) {
      for (const std::uint64_t cache : {std::uint64_t{0}, o.cache}) {
        char label[64];
        std::snprintf(label, sizeof label, "rtt%gx/%s/cache%llu", rtt_x,
                      fault, static_cast<unsigned long long>(cache));
        cells.push_back({label, rtt_x, fault, cache});
      }
    }
  }

  std::printf("=== ablation: lending fabric (%zu nodes x %zu tenants, "
              "lending-heavy, scale %g, cache %llu pages) ===\n",
              o.nodes, o.vms, o.scale,
              static_cast<unsigned long long>(o.cache));
  std::printf("%zu cell(s) x %zu rep(s)\n\n", cells.size(), o.reps);

  std::vector<cluster::FleetRunResult> runs(cells.size() * o.reps);
  parallel_for_each(o.jobs, runs.size(), [&](std::size_t i) {
    runs[i] = run_cell(o, cells[i / o.reps], o.seed + (i % o.reps));
  });

  std::printf("%-22s %11s %8s %8s %8s %8s %8s %8s %9s %9s\n", "cell",
              "failed_puts", "borrows", "retries", "giveups", "fallbk",
              "c_hits", "c_miss", "put_rtt", "get_rtt");
  struct Agg {
    RunningStats failed, put_rtt, get_rtt;
    std::uint64_t borrows = 0, retries = 0, giveups = 0, fallbacks = 0;
    std::uint64_t chits = 0, cmiss = 0;
  };
  std::vector<Agg> agg(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t rep = 0; rep < o.reps; ++rep) {
      const cluster::FleetRunResult& r = runs[c * o.reps + rep];
      agg[c].failed.add(static_cast<double>(r.aggregate_failed_puts));
      agg[c].put_rtt.add(r.put_rtt_mean_us);
      agg[c].get_rtt.add(r.get_rtt_mean_us);
      agg[c].borrows += r.borrow_placements;
      agg[c].retries += r.fabric_retries;
      agg[c].giveups += r.fabric_give_ups;
      agg[c].fallbacks += r.fabric_get_fallbacks;
      agg[c].chits += r.cache_hits;
      agg[c].cmiss += r.cache_misses;
    }
    std::printf("%-22s %11.0f %8llu %8llu %8llu %8llu %8llu %8llu %8.1fu "
                "%8.1fu\n",
                cells[c].label.c_str(), agg[c].failed.mean(),
                static_cast<unsigned long long>(agg[c].borrows),
                static_cast<unsigned long long>(agg[c].retries),
                static_cast<unsigned long long>(agg[c].giveups),
                static_cast<unsigned long long>(agg[c].fallbacks),
                static_cast<unsigned long long>(agg[c].chits),
                static_cast<unsigned long long>(agg[c].cmiss),
                agg[c].put_rtt.mean(), agg[c].get_rtt.mean());
  }

  // Headline: the borrower cache's effect on borrowed-get latency at the
  // default wire speed, fault-free.
  const Cell* on = nullptr;
  const Cell* off = nullptr;
  std::size_t on_i = 0, off_i = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].rtt_x != 1.0 || cells[c].fault != "none") continue;
    if (cells[c].cache == 0 && off == nullptr) { off = &cells[c]; off_i = c; }
    if (cells[c].cache == o.cache && o.cache > 0 && on == nullptr) {
      on = &cells[c];
      on_i = c;
    }
  }
  if (on != nullptr && off != nullptr && agg[on_i].get_rtt.mean() > 0.0) {
    std::printf("\ncache effect (rtt 1x, fault-free): borrowed-get mean "
                "%.1fus with cache vs %.1fus without (%.1f%% cut, hit rate "
                "%.1f%%)\n",
                agg[on_i].get_rtt.mean(), agg[off_i].get_rtt.mean(),
                100.0 * (1.0 - agg[on_i].get_rtt.mean() /
                                   agg[off_i].get_rtt.mean()),
                100.0 * static_cast<double>(agg[on_i].chits) /
                    static_cast<double>(agg[on_i].chits + agg[on_i].cmiss));
  }

  if (!o.csv_dir.empty()) {
    const std::string path = o.csv_dir + "/ablation_lending.csv";
    std::ofstream csv(path);
    csv << "cell,rtt_x,fault,cache_pages,rep,"
           "failed_puts,puts_total,makespan_s,borrow_placements,"
           "failed_placements,failed_replacements,fabric_requests,"
           "fabric_retries,fabric_timeouts,fabric_give_ups,"
           "fabric_get_fallbacks,cache_hits,cache_misses,"
           "cache_invalidations,put_rtt_mean_us,get_rtt_mean_us,"
           "get_rtt_count\n";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t rep = 0; rep < o.reps; ++rep) {
        const cluster::FleetRunResult& r = runs[c * o.reps + rep];
        char line[512];
        std::snprintf(
            line, sizeof line,
            "%s,%g,%s,%llu,%zu,%llu,%llu,%.6f,%llu,%llu,%llu,%llu,"
            "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.3f,%.3f,%llu\n",
            cells[c].label.c_str(), cells[c].rtt_x,
            cells[c].fault.c_str(),
            static_cast<unsigned long long>(cells[c].cache), rep,
            static_cast<unsigned long long>(r.aggregate_failed_puts),
            static_cast<unsigned long long>(r.puts_total), r.makespan_s,
            static_cast<unsigned long long>(r.borrow_placements),
            static_cast<unsigned long long>(r.lending_failed_placements),
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
        csv << line;
      }
    }
    std::printf("\nwrote %s\n", path.c_str());
  }
  return 0;
}
