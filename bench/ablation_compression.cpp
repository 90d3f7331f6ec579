// Ablation (src/tier): the zswap-style compressed tier.
//
// Sweeps the three knobs that decide whether compressing tmem pays off —
// workload compressibility (the per-VM mean-ratio band), the CPU cost of
// compressing a page on put, and the pool's byte budget — over scenario 1
// under the smart policy, against two uncompressed baselines:
//
//   * dram-only:   the same DRAM, no pool — what the pool's bytes buy;
//   * equal-bytes: DRAM grown by pool_bytes/4096 plain pages — the honest
//     zswap question: carve the bytes out for compression, or just use
//     them as more page frames? Compression wins exactly when the achieved
//     ratio packs more pages into those bytes than 1x frames would, net of
//     the extra CPU latency per access.
//
// The whole grid is deterministic: per-page compressed sizes are a pure
// hash of (seed, vm, kind, object, index), so the CSV is bit-identical for
// every --jobs value.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strfmt.hpp"
#include "common/thread_pool.hpp"

namespace {

struct Case {
  std::string name;
  double dram_fraction;   // of the scenario's tmem size
  double pool_fraction;   // pool bytes, as a fraction of DRAM bytes (0 = off)
  double min_ratio = 1.5;
  double max_ratio = 4.0;
  smartmem::SimTime put_cost = 9 * smartmem::kMicrosecond;
  bool equal_bytes_dram = false;  // fold pool bytes into DRAM pages instead
};

struct CellResult {
  double mean_run_s = 0.0;
  std::uint64_t failed_puts = 0;
  std::uint64_t disk_swapins = 0;
  std::uint64_t comp_stored = 0;
  std::uint64_t comp_peak_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts = bench::parse_options(
      argc, argv, {"--scale", "--reps", "--seed", "--jobs", "--csv"});
  const core::ScenarioSpec spec = core::scenario1(opts.scale);

  // Memory-constrained geometry: half the paper's tmem, so the baselines
  // fail puts and the pool's elasticity is visible.
  constexpr double kDram = 0.5;
  constexpr double kPool = 0.25;  // default pool: 25% of DRAM bytes

  std::vector<Case> cases;
  cases.push_back({"dram-only", kDram, 0.0});
  cases.push_back({"equal-bytes", kDram, kPool, 1.5, 4.0,
                   9 * kMicrosecond, true});
  // Ratio band x put cost at the default pool size.
  for (const auto& [band, lo, hi] :
       {std::tuple{"lo-ratio", 1.2, 1.8}, std::tuple{"mid-ratio", 1.5, 4.0},
        std::tuple{"hi-ratio", 2.5, 4.0}}) {
    for (const SimTime cost :
         {4500 * kNanosecond, 9 * kMicrosecond, 18 * kMicrosecond}) {
      cases.push_back({strfmt("%s/put%.1fus", band, to_seconds(cost) * 1e6),
                       kDram, kPool, lo, hi, cost});
    }
  }
  // Pool-size sweep at the default band/cost.
  cases.push_back({"pool-12%", kDram, 0.125});
  cases.push_back({"pool-50%", kDram, 0.5});

  std::printf("=== ablation: compressed tmem tier (scenario 1, smart "
              "P=0.75%%) ===\n");
  std::printf("DRAM %.0f%% of paper size; pool bytes as %% of DRAM bytes\n\n",
              kDram * 100);
  std::printf("%-20s %12s %12s %12s %12s %14s\n", "configuration",
              "mean run (s)", "failed puts", "disk swapins", "comp stored",
              "comp peak (B)");

  // One grid slot per (case, rep); aggregation happens after the barrier in
  // case order, so the table and CSV are independent of --jobs.
  const std::size_t reps = opts.repetitions;
  std::vector<CellResult> cells(cases.size() * reps);
  parallel_for_each(opts.jobs, cells.size(), [&](std::size_t slot) {
    const Case& c = cases[slot / reps];
    const std::uint64_t seed = opts.base_seed + slot % reps;
    core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
    core::ScenarioSpec scaled = spec;
    scaled.tmem_pages = static_cast<PageCount>(
        static_cast<double>(spec.tmem_pages) * c.dram_fraction);
    const std::uint64_t pool_bytes = static_cast<std::uint64_t>(
        static_cast<double>(scaled.tmem_pages) * c.pool_fraction *
        static_cast<double>(kPageSize));
    if (c.equal_bytes_dram) {
      scaled.tmem_pages += pool_bytes / kPageSize;
    } else if (pool_bytes > 0) {
      cfg.compressed_pool_bytes = pool_bytes;
      cfg.compressibility.min_ratio = c.min_ratio;
      cfg.compressibility.max_ratio = c.max_ratio;
      cfg.costs.tmem_put_compressed = c.put_cost;
    }
    auto node = core::build_node(scaled, mm::PolicySpec::smart(0.75), seed,
                                 &cfg);
    node->run(scaled.deadline);
    CellResult& cell = cells[slot];
    RunningStats run_time;
    for (VmId id : node->vm_ids()) {
      run_time.add(to_seconds(node->runner(id).finish_time() -
                              node->runner(id).start_time()));
      cell.failed_puts += node->hypervisor().vm_data(id).cumul_puts_failed;
      cell.disk_swapins += node->kernel(id).stats().swapins_disk;
    }
    cell.mean_run_s = run_time.mean();
    const auto& stats = node->hypervisor().store().stats();
    cell.comp_stored = stats.compressed_stored + stats.demotions_to_compressed;
    cell.comp_peak_bytes =
        node->hypervisor().store().compressed_pool().peak_bytes();
  });

  std::string csv =
      "case,pool_frac,min_ratio,max_ratio,put_cost_us,mean_run_s,"
      "failed_puts,disk_swapins,comp_stored,comp_peak_bytes\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    CellResult sum;
    RunningStats run_time;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const CellResult& cell = cells[i * reps + rep];
      run_time.add(cell.mean_run_s);
      sum.failed_puts += cell.failed_puts;
      sum.disk_swapins += cell.disk_swapins;
      sum.comp_stored += cell.comp_stored;
      sum.comp_peak_bytes = std::max(sum.comp_peak_bytes,
                                     cell.comp_peak_bytes);
    }
    std::printf("%-20s %12.2f %12llu %12llu %12llu %14llu\n", c.name.c_str(),
                run_time.mean(),
                static_cast<unsigned long long>(sum.failed_puts / reps),
                static_cast<unsigned long long>(sum.disk_swapins / reps),
                static_cast<unsigned long long>(sum.comp_stored / reps),
                static_cast<unsigned long long>(sum.comp_peak_bytes));
    csv += strfmt("%s,%g,%g,%g,%g,%.6f,%llu,%llu,%llu,%llu\n", c.name.c_str(),
                  c.pool_fraction, c.min_ratio, c.max_ratio,
                  to_seconds(c.equal_bytes_dram || c.pool_fraction == 0
                                 ? 9 * kMicrosecond
                                 : c.put_cost) * 1e6,
                  run_time.mean(),
                  static_cast<unsigned long long>(sum.failed_puts / reps),
                  static_cast<unsigned long long>(sum.disk_swapins / reps),
                  static_cast<unsigned long long>(sum.comp_stored / reps),
                  static_cast<unsigned long long>(sum.comp_peak_bytes));
  }
  if (!opts.csv_dir.empty()) {
    const std::string path = opts.csv_dir + "/ablation_compression.csv";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(csv.data(), 1, csv.size(), f);
      std::fclose(f);
      std::printf("\nwrote %s\n", path.c_str());
    }
  }
  std::printf("\nCompression beats the dram-only baseline whenever the pool\n"
              "absorbs overflow; it beats even the equal-bytes baseline once\n"
              "the achieved ratio packs more pages into the pool's bytes\n"
              "than plain frames would — unless the per-put compression\n"
              "cost eats the gain.\n");
  return 0;
}
