// Shared runner of the figure-reproduction benches, and the one command-line
// parser every bench uses.
//
// Every figure bench regenerates one table/figure of the paper: it runs a
// scenario under a set of policies, prints the running-time table or the
// tmem-usage chart, and (with --csv) dumps raw data for plotting.
//
// Command line. A bench declares each flag it reads once, as a Flag: name,
// help line, the variable that holds its default, its range or choices, and
// the condition it needs. parse_flags() then handles --help, unknown flags,
// missing, malformed and out-of-range values and the needs-rules the same
// way for every bench: any error exits 2 with that bench's flag list before
// anything runs, so a typo like `--rep 5` never silently runs the default
// config. The flags every bench shares have one range everywhere:
//   --scale <f>   linear memory scale in [0.001, 16] (1.0 = paper size)
//   --reps <n>    repetitions in [1, 1000]
//   --seed <n>    base seed, any u64
//   --jobs <n>    worker threads in [0, 4096] (0 = every hardware thread);
//                 output is bit-identical for every jobs value
//   --csv <dir>   write CSV files into <dir>, which must already exist
//
// parse_options() is the figure/ablation/ext benches' table. Besides the
// shared flags it holds --full (--scale 1.0 --reps 5) and:
//
// Control-plane (src/comm) knobs, for staleness/fault what-ifs on any bench:
//   --comm-latency-x <f>   multiply both hop latencies by <f> (default 1)
//   --comm-loss <p>        per-hop message loss probability (default 0)
//   --comm-queue <n>       bounded in-flight queue per hop (default 0 = off)
//   --comm-policy <p>      drop-newest | drop-oldest (needs --comm-queue > 0)
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
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <stdexcept>
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

// ---- Command line ---------------------------------------------------------

/// One flag a bench reads.
struct Flag {
  /// Stores the value text into the bound variable (a switch gets nullptr);
  /// false marks the value malformed or out of range.
  using Set = std::function<bool(const char* text)>;

  std::string name;  // "--scale"
  std::string arg;   // value placeholder ("<f>"); empty for a switch
  std::string help;  // meaning, range or choices, default
  Set set;
  /// Checked once every flag is parsed, for a given flag only: a flag that
  /// modifies another would otherwise be silently ignored on its own.
  std::function<bool()> needs = nullptr;
  std::string needs_what = {};  // what `needs` asks for, for the message
};

/// Parses argv against `flags`, storing values in argv order. --help / -h
/// prints the flag list to stdout and exits 0. An unknown flag, a missing,
/// malformed or out-of-range value, or an unmet needs-rule prints the error
/// and the flag list to stderr and exits 2.
void parse_flags(int argc, char** argv, const std::vector<Flag>& flags);

/// Value binders. A number must be the whole token and lie in [min, max];
/// a count is digits only, a real has no leading '-' and is finite.
Flag::Set real(double& v, double min, double max);
Flag::Set count(std::uint64_t& v, std::uint64_t min, std::uint64_t max);
Flag::Set text(std::string& v);
/// The text must name an existing directory (checked at parse time, so a
/// bad --csv fails before the run, not after it).
Flag::Set directory(std::string& v);
/// A switch's binder: stores `value` when the flag is given.
Flag::Set assign(bool& v, bool value);
/// A string accepted when `validate(text)` does not throw
/// std::invalid_argument (e.g. cluster::parse_global_policy).
template <typename Validate>
Flag::Set validated_text(std::string& v, Validate validate) {
  return [&v, validate](const char* value) {
    try {
      validate(value);
    } catch (const std::invalid_argument&) {
      return false;
    }
    v = value;
    return true;
  };
}

/// The shared flags, with their one range; the help line shows the bound
/// variable's current value as the default.
Flag scale_flag(double& v);
Flag reps_flag(std::size_t& v);
Flag seed_flag(std::uint64_t& v);
Flag jobs_flag(std::size_t& v);
Flag csv_flag(std::string& v);

/// The figure/ablation/ext benches' flags (the list above). A bench that
/// reads only some of them names those in `reads` (e.g. {"--scale",
/// "--reps", "--seed"}; --full comes with --scale and --reps), and every
/// other flag is unknown to it. The empty default reads every flag.
Options parse_options(int argc, char** argv,
                      std::initializer_list<std::string_view> reads = {});

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
