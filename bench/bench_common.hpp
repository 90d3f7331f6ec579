// Shared driver for the figure-reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper: it runs a
// scenario under a set of policies, prints the running-time table or the
// tmem-usage chart, and (with --csv) dumps raw data for plotting.
//
// Flags (all optional):
//   --scale <f>   linear memory scale (default 0.125; 1.0 = paper size)
//   --reps <n>    repetitions per policy (default 3; paper uses 5)
//   --seed <n>    base seed (default 1)
//   --jobs <n>    worker threads for the policy x rep grid (default 1;
//                 0 = every hardware thread). Output is bit-identical for
//                 every jobs value.
//   --csv <dir>   write CSV files into <dir> (must already exist)
//   --full        shorthand for --scale 1.0 --reps 5
//
// Control-plane (src/comm) knobs, for staleness/fault what-ifs on any bench:
//   --comm-latency-x <f>   multiply both hop latencies by <f> (default 1)
//   --comm-loss <p>        per-hop message loss probability (default 0)
//   --comm-queue <n>       bounded in-flight queue per hop (default 0 = off)
//   --comm-policy <p>      drop-newest | drop-oldest | backpressure
//                          (needs --comm-queue > 0)
//
// Adaptive control plane (off by default — the paper-faithful loop):
//   --stale-mode <m>       smart-alloc staleness handling: off|skip|widen
//   --stale-threshold <f>  sample age (in intervals) counting as stale
//                          (needs --stale-mode skip|widen)
//   --adaptive-interval    let the MM stretch/shrink the sampling interval
//
// Compressed tier (src/tier, off by default — byte-identical when off):
//   --compressed-bytes <n>     byte budget of the zswap-style pool (0 = off)
//   --compress-min-ratio <f>   lower bound of per-VM mean ratios
//   --compress-max-ratio <f>   upper bound of per-VM mean ratios
//   --compressed-evict <m>     drop | demote (default demote)
//   (the ratio and evict flags need --compressed-bytes > 0)
//   --capacity-units <u>       pages | bytes control-plane units
//
// Observability (src/obs) outputs. The measured figure grid always runs
// with observability off (byte-identical output); when any --*-out flag is
// given, ONE extra dedicated run executes after the grid with the requested
// pillars enabled and writes the files:
//   --trace-out <file>     Chrome trace-event JSON (Perfetto-loadable)
//   --metrics-out <file>   metrics snapshots, JSONL (or CSV via .csv suffix)
//   --audit-out <file>     policy decision audit log, JSONL
//   --trace-cats <list>    comma-separated trace categories (default all:
//                          tmem,hyper,comm,mm,guest,workload,sim)
//
// Unknown flags, malformed values, a modifier flag without the flag it
// modifies, a flag the bench does not read and a missing --csv directory
// are fatal at parse time (exit 2 with a usage message): a typo like
// `--rep 5` must not silently run the default config.
#pragma once

#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "comm/channel.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"

namespace smartmem::bench {

struct Options {
  double scale = 0.125;
  std::size_t repetitions = 3;
  std::uint64_t base_seed = 1;
  std::size_t jobs = 1;  // 0 = hardware_concurrency
  std::string csv_dir;
  // --comm-* overrides; at these defaults the node config is left untouched,
  // keeping every figure bench byte-identical to the pre-comm output.
  double comm_latency_x = 1.0;
  double comm_loss = 0.0;
  std::size_t comm_queue = 0;
  comm::QueuePolicy comm_policy = comm::QueuePolicy::kDropNewest;
  // --stale-mode / --stale-threshold / --adaptive-interval; at these
  // defaults neither the policy configs nor the node config are touched.
  mm::StaleMode stale_mode = mm::StaleMode::kOff;
  double stale_threshold = 1.5;
  bool adaptive_interval = false;
  // Compressed-tier (src/tier) knobs; at these defaults the node config is
  // left untouched, keeping every figure byte-identical to the pre-tier
  // output. --compressed-bytes enables the pool.
  std::uint64_t compressed_bytes = 0;
  double compress_min_ratio = 1.5;
  double compress_max_ratio = 4.0;
  bool compressed_evict_demote = true;
  CapacityUnits capacity_units = CapacityUnits::kPages;
  // --trace-out / --metrics-out / --audit-out / --trace-cats; empty paths
  // leave observability off entirely.
  std::string trace_out;
  std::string metrics_out;
  std::string audit_out;
  std::uint32_t trace_categories = obs::kCatAll;
};

/// True when any --comm-* flag deviates from its default.
bool comm_overridden(const Options& opts);

/// Applies the --comm-* flags onto cfg.comm (both hops).
void apply_comm_options(core::NodeConfig& cfg, const Options& opts);

/// True when --stale-mode or --adaptive-interval deviates from its default.
bool adaptive_overridden(const Options& opts);

/// True when any compressed-tier flag deviates from its default.
bool compression_overridden(const Options& opts);

/// Applies the --compressed-*/--capacity-units flags onto cfg.
void apply_compression_options(core::NodeConfig& cfg, const Options& opts);

/// Applies --adaptive-interval onto cfg (bounds already scaled by
/// scaled_node_defaults).
void apply_adaptive_options(core::NodeConfig& cfg, const Options& opts);

/// Returns `policies` with --stale-mode/--stale-threshold applied to every
/// smart-policy spec (other policies pass through untouched).
std::vector<mm::PolicySpec> apply_stale_options(
    std::vector<mm::PolicySpec> policies, const Options& opts);

/// True when any --*-out observability flag was given.
bool obs_requested(const Options& opts);

/// Runs the one dedicated observed run (observability pillars per `opts`)
/// and reports the written files. Uses the first policy that runs a Memory
/// Manager (falling back to the first policy) so the trace and audit carry
/// mm activity. No-op when !obs_requested(opts).
void run_observed(const std::string& figure_id,
                  core::ScenarioSpec (*scenario)(double),
                  const std::vector<mm::PolicySpec>& policies,
                  const Options& opts);

/// Parses the flags above. A bench that reads only some of them names those
/// in `reads` (e.g. {"--scale", "--reps", "--seed"}; --full comes with
/// --scale and --reps), and every other flag exits 2 instead of being
/// silently ignored. The empty default accepts every flag.
Options parse_options(int argc, char** argv,
                      std::initializer_list<std::string_view> reads = {});

// ---- Strict flag values for the benches that parse their own flags --------

/// Prints "bad value for <flag>: '<value>'" and `usage(stderr)`, then
/// exits 2.
[[noreturn]] void bad_value(const char* flag, const char* value,
                            void (*usage)(std::FILE*));

/// Returns `value` when it names an existing directory; otherwise prints
/// "<flag>: no such directory" and `usage(stderr)`, then exits 2. Checked
/// at parse time so a bad --csv fails before any run, not after the grid.
std::string existing_dir(const char* flag, const char* value,
                         void (*usage)(std::FILE*));

/// The whole token must convert, a leading '-' is rejected, and the result
/// must lie in [min, max]; anything else is a bad_value().
std::uint64_t parse_u64(const char* flag, const char* value,
                        std::uint64_t min, std::uint64_t max,
                        void (*usage)(std::FILE*));
double parse_f64(const char* flag, const char* value, double min, double max,
                 void (*usage)(std::FILE*));

/// Prints the reference of the flags the bench reads to `out` (shared by
/// --help and parse errors).
void print_usage(std::FILE* out);

/// Runs `scenario(scale)` under every policy, prints the Figure-style
/// running-time table plus the paper's improvement lines, and returns the
/// per-policy results.
std::vector<core::ExperimentResult> run_runtime_figure(
    const std::string& figure_id, const std::string& title,
    core::ScenarioSpec (*scenario)(double),
    const std::vector<mm::PolicySpec>& policies, const Options& opts);

/// Runs one seeded run per policy panel and prints the tmem-usage charts
/// (the Figure 4/6/8/10 format).
void run_usage_figure(const std::string& figure_id, const std::string& title,
                      core::ScenarioSpec (*scenario)(double),
                      const std::vector<mm::PolicySpec>& panels,
                      const Options& opts, bool include_targets = false);

}  // namespace smartmem::bench
