#include "bench_common.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <set>

#include "common/strfmt.hpp"
#include "common/thread_pool.hpp"

namespace smartmem::bench {

namespace {

/// Every shared flag with its usage line, in usage order.
struct FlagHelp {
  std::string_view flag;
  const char* text;
};
constexpr FlagHelp kFlags[] = {
    {"--scale", "  --scale <f>   linear memory scale (default 0.125; 1.0 = "
                "paper size)\n"},
    {"--reps", "  --reps <n>    repetitions per policy (default 3; paper uses "
               "5)\n"},
    {"--seed", "  --seed <n>    base seed (default 1)\n"},
    {"--jobs", "  --jobs <n>    worker threads (default 1; 0 = all hardware "
               "threads)\n"},
    {"--csv", "  --csv <dir>   write CSV files into <dir> (must exist)\n"},
    {"--full", "  --full        shorthand for --scale 1.0 --reps 5\n"},
    {"--comm-latency-x",
     "  --comm-latency-x <f>  multiply control-plane hop latencies\n"},
    {"--comm-loss",
     "  --comm-loss <p>       per-hop message loss probability\n"},
    {"--comm-queue",
     "  --comm-queue <n>      bounded in-flight queue (0 = off)\n"},
    {"--comm-policy", "  --comm-policy <p>     drop-newest|drop-oldest|"
                      "backpressure (needs --comm-queue)\n"},
    {"--stale-mode", "  --stale-mode <m>      smart-alloc staleness handling: "
                     "off|skip|widen\n"},
    {"--stale-threshold", "  --stale-threshold <f> sample age (intervals) "
                          "counting as stale (default 1.5; needs "
                          "--stale-mode skip|widen)\n"},
    {"--adaptive-interval",
     "  --adaptive-interval   MM-driven dynamic sampling interval\n"},
    {"--compressed-bytes", "  --compressed-bytes <n>    compressed-tier byte "
                           "budget (0 = off)\n"},
    {"--compress-min-ratio", "  --compress-min-ratio <f>  per-VM mean ratio "
                             "lower bound (default 1.5)\n"},
    {"--compress-max-ratio", "  --compress-max-ratio <f>  per-VM mean ratio "
                             "upper bound (default 4.0)\n"},
    {"--compressed-evict", "  --compressed-evict <m>    drop|demote (default "
                           "demote)\n"},
    {"--capacity-units", "  --capacity-units <u>      pages|bytes "
                         "control-plane units\n"},
    {"--trace-out", "  --trace-out <file>    write a Perfetto trace from one "
                    "extra observed run\n"},
    {"--metrics-out", "  --metrics-out <file>  write metrics snapshots (JSONL; "
                      ".csv for CSV)\n"},
    {"--audit-out", "  --audit-out <file>    write the policy decision audit "
                    "log (JSONL)\n"},
    {"--trace-cats", "  --trace-cats <list>   trace categories "
                     "(tmem,hyper,comm,mm,guest,workload,sim|all)\n"},
};

/// The flags the running bench reads (parse_options' `reads`); empty while
/// it reads every flag. Set once before parsing starts.
std::vector<std::string_view> g_reads;

bool bench_reads(std::string_view flag) {
  if (g_reads.empty()) return true;
  // --full only sets --scale and --reps.
  if (flag == "--full") return bench_reads("--scale") && bench_reads("--reps");
  return std::find(g_reads.begin(), g_reads.end(), flag) != g_reads.end();
}

}  // namespace

void print_usage(std::FILE* out) {
  std::fprintf(out, "flags:\n");
  for (const FlagHelp& f : kFlags) {
    if (bench_reads(f.flag)) std::fputs(f.text, out);
  }
}

bool comm_overridden(const Options& opts) {
  return opts.comm_latency_x != 1.0 || opts.comm_loss != 0.0 ||
         opts.comm_queue != 0 ||
         opts.comm_policy != comm::QueuePolicy::kDropNewest;
}

bool adaptive_overridden(const Options& opts) {
  return opts.stale_mode != mm::StaleMode::kOff || opts.adaptive_interval;
}

bool compression_overridden(const Options& opts) {
  return opts.compressed_bytes != 0 || opts.compress_min_ratio != 1.5 ||
         opts.compress_max_ratio != 4.0 || !opts.compressed_evict_demote ||
         opts.capacity_units != CapacityUnits::kPages;
}

void apply_compression_options(core::NodeConfig& cfg, const Options& opts) {
  cfg.compressed_pool_bytes = opts.compressed_bytes;
  cfg.compressibility.min_ratio = opts.compress_min_ratio;
  cfg.compressibility.max_ratio = opts.compress_max_ratio;
  cfg.compressed_evict_demote = opts.compressed_evict_demote;
  cfg.capacity_units = opts.capacity_units;
}

void apply_adaptive_options(core::NodeConfig& cfg, const Options& opts) {
  cfg.adaptive_interval.enabled = opts.adaptive_interval;
}

std::vector<mm::PolicySpec> apply_stale_options(
    std::vector<mm::PolicySpec> policies, const Options& opts) {
  if (opts.stale_mode == mm::StaleMode::kOff) return policies;
  for (auto& spec : policies) {
    if (spec.kind != mm::PolicyKind::kSmart) continue;
    spec.smart_config.stale_mode = opts.stale_mode;
    spec.smart_config.stale_threshold_intervals = opts.stale_threshold;
  }
  return policies;
}

bool obs_requested(const Options& opts) {
  return !opts.trace_out.empty() || !opts.metrics_out.empty() ||
         !opts.audit_out.empty();
}

void run_observed(const std::string& figure_id,
                  core::ScenarioSpec (*scenario)(double),
                  const std::vector<mm::PolicySpec>& policies,
                  const Options& opts) {
  if (!obs_requested(opts) || policies.empty()) return;
  const std::vector<mm::PolicySpec> specs =
      apply_stale_options(policies, opts);
  // Prefer a managed policy so the trace/audit carry MM decisions — and a
  // smart policy specifically when a stale mode was requested, so the
  // audit shows the alg4:stale-* verdicts the flag enables.
  const mm::PolicySpec* policy = &specs.front();
  for (const auto& p : specs) {
    if (p.needs_manager()) {
      policy = &p;
      break;
    }
  }
  if (opts.stale_mode != mm::StaleMode::kOff) {
    for (const auto& p : specs) {
      if (p.kind == mm::PolicyKind::kSmart) {
        policy = &p;
        break;
      }
    }
  }
  core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
  if (comm_overridden(opts)) apply_comm_options(cfg, opts);
  if (adaptive_overridden(opts)) apply_adaptive_options(cfg, opts);
  if (compression_overridden(opts)) apply_compression_options(cfg, opts);
  cfg.obs.trace_out = opts.trace_out;
  cfg.obs.metrics_out = opts.metrics_out;
  cfg.obs.audit_out = opts.audit_out;
  cfg.obs.trace_categories = opts.trace_categories;

  const core::ScenarioSpec spec = scenario(opts.scale);
  std::printf("observability run (%s, %s, seed %llu)...\n", figure_id.c_str(),
              policy->label().c_str(),
              static_cast<unsigned long long>(opts.base_seed));
  core::run_scenario(spec, *policy, opts.base_seed, &cfg);
  if (!opts.trace_out.empty()) {
    std::printf("wrote %s\n", opts.trace_out.c_str());
  }
  if (!opts.metrics_out.empty()) {
    std::printf("wrote %s\n", opts.metrics_out.c_str());
  }
  if (!opts.audit_out.empty()) {
    std::printf("wrote %s\n", opts.audit_out.c_str());
  }
}

void apply_comm_options(core::NodeConfig& cfg, const Options& opts) {
  auto apply = [&opts](comm::ChannelConfig& ch) {
    ch.latency = static_cast<SimTime>(static_cast<double>(ch.latency) *
                                      opts.comm_latency_x);
    ch.faults.loss_rate = opts.comm_loss;
    ch.queue_capacity = opts.comm_queue;
    ch.queue_policy = opts.comm_policy;
  };
  apply(cfg.comm.uplink);
  apply(cfg.comm.downlink);
}

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  print_usage(stderr);
  std::exit(2);
}

double parse_double(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') {
    usage_error("malformed value '" + std::string(text) + "' for " + flag);
  }
  return v;
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage_error("malformed value '" + std::string(text) + "' for " + flag);
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

void bad_value(const char* flag, const char* value,
               void (*usage)(std::FILE*)) {
  std::fprintf(stderr, "bad value for %s: '%s'\n", flag, value);
  usage(stderr);
  std::exit(2);
}

std::string existing_dir(const char* flag, const char* value,
                         void (*usage)(std::FILE*)) {
  std::error_code ec;
  if (!std::filesystem::is_directory(value, ec)) {
    std::fprintf(stderr, "%s: no such directory '%s'\n", flag, value);
    usage(stderr);
    std::exit(2);
  }
  return value;
}

std::uint64_t parse_u64(const char* flag, const char* value,
                        std::uint64_t min, std::uint64_t max,
                        void (*usage)(std::FILE*)) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0' || value[0] == '-' ||
      v < min || v > max) {
    bad_value(flag, value, usage);
  }
  return static_cast<std::uint64_t>(v);
}

double parse_f64(const char* flag, const char* value, double min, double max,
                 void (*usage)(std::FILE*)) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (errno != 0 || end == value || *end != '\0' || value[0] == '-' ||
      !(v >= min) || !(v <= max)) {
    bad_value(flag, value, usage);
  }
  return v;
}

Options parse_options(int argc, char** argv,
                      std::initializer_list<std::string_view> reads) {
  g_reads.assign(reads.begin(), reads.end());
  Options opts;
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      std::exit(0);
    }
    const bool known =
        std::any_of(std::begin(kFlags), std::end(kFlags),
                    [&arg](const FlagHelp& f) { return f.flag == arg; });
    if (!known) usage_error("unknown flag " + arg);
    // A flag this bench never reads would silently replay the plain run.
    if (!bench_reads(arg)) usage_error(arg + " is not read by this bench");
    given.insert(arg);
    if (arg == "--scale") {
      opts.scale = parse_double(arg, next());
    } else if (arg == "--reps") {
      opts.repetitions = static_cast<std::size_t>(parse_u64(arg, next()));
    } else if (arg == "--seed") {
      opts.base_seed = parse_u64(arg, next());
    } else if (arg == "--jobs") {
      opts.jobs = static_cast<std::size_t>(parse_u64(arg, next()));
    } else if (arg == "--csv") {
      opts.csv_dir = existing_dir("--csv", next(), print_usage);
    } else if (arg == "--comm-latency-x") {
      opts.comm_latency_x = parse_double(arg, next());
      if (opts.comm_latency_x <= 0) usage_error("--comm-latency-x must be > 0");
    } else if (arg == "--comm-loss") {
      opts.comm_loss = parse_double(arg, next());
      if (opts.comm_loss < 0 || opts.comm_loss >= 1.0) {
        usage_error("--comm-loss must be in [0, 1)");
      }
    } else if (arg == "--comm-queue") {
      opts.comm_queue = static_cast<std::size_t>(parse_u64(arg, next()));
    } else if (arg == "--comm-policy") {
      if (!comm::parse_queue_policy(next(), opts.comm_policy)) {
        usage_error("--comm-policy must be drop-newest, drop-oldest or "
                    "backpressure");
      }
    } else if (arg == "--stale-mode") {
      if (!mm::parse_stale_mode(next(), opts.stale_mode)) {
        usage_error("--stale-mode must be off, skip or widen");
      }
    } else if (arg == "--stale-threshold") {
      opts.stale_threshold = parse_double(arg, next());
      if (opts.stale_threshold <= 0) {
        usage_error("--stale-threshold must be > 0");
      }
    } else if (arg == "--adaptive-interval") {
      opts.adaptive_interval = true;
    } else if (arg == "--compressed-bytes") {
      opts.compressed_bytes = parse_u64(arg, next());
    } else if (arg == "--compress-min-ratio") {
      opts.compress_min_ratio = parse_double(arg, next());
      if (opts.compress_min_ratio < 1.0) {
        usage_error("--compress-min-ratio must be >= 1");
      }
    } else if (arg == "--compress-max-ratio") {
      opts.compress_max_ratio = parse_double(arg, next());
      if (opts.compress_max_ratio < 1.0) {
        usage_error("--compress-max-ratio must be >= 1");
      }
    } else if (arg == "--compressed-evict") {
      const std::string mode = next();
      if (mode == "drop") {
        opts.compressed_evict_demote = false;
      } else if (mode == "demote") {
        opts.compressed_evict_demote = true;
      } else {
        usage_error("--compressed-evict must be drop or demote");
      }
    } else if (arg == "--capacity-units") {
      const std::string units = next();
      if (units == "pages") {
        opts.capacity_units = CapacityUnits::kPages;
      } else if (units == "bytes") {
        opts.capacity_units = CapacityUnits::kBytes;
      } else {
        usage_error("--capacity-units must be pages or bytes");
      }
    } else if (arg == "--trace-out") {
      opts.trace_out = next();
    } else if (arg == "--metrics-out") {
      opts.metrics_out = next();
    } else if (arg == "--audit-out") {
      opts.audit_out = next();
    } else if (arg == "--trace-cats") {
      if (!obs::parse_categories(next(), opts.trace_categories)) {
        usage_error(
            "--trace-cats must be a comma-separated subset of "
            "tmem,hyper,comm,mm,guest,workload,sim (or 'all')");
      }
    } else if (arg == "--full") {
      opts.scale = 1.0;
      opts.repetitions = 5;
    }
  }
  // A flag that only modifies another one would, given alone, be silently
  // ignored and replay the plain run.
  if (given.count("--stale-threshold") != 0 &&
      opts.stale_mode == mm::StaleMode::kOff) {
    usage_error("--stale-threshold needs --stale-mode skip or widen");
  }
  if (given.count("--comm-policy") != 0 && opts.comm_queue == 0) {
    usage_error("--comm-policy needs --comm-queue <n> > 0");
  }
  for (const char* flag :
       {"--compress-min-ratio", "--compress-max-ratio", "--compressed-evict"}) {
    if (given.count(flag) != 0 && opts.compressed_bytes == 0) {
      usage_error(std::string(flag) + " needs --compressed-bytes <n> > 0");
    }
  }
  return opts;
}

std::vector<core::ExperimentResult> run_runtime_figure(
    const std::string& figure_id, const std::string& title,
    core::ScenarioSpec (*scenario)(double),
    const std::vector<mm::PolicySpec>& policies, const Options& opts) {
  const core::ScenarioSpec spec = scenario(opts.scale);
  const std::size_t jobs = ThreadPool::resolve_jobs(opts.jobs);
  std::printf("=== %s: %s ===\n", figure_id.c_str(), title.c_str());
  std::printf("scenario: %s\n", spec.description.c_str());
  std::printf(
      "scale %.4g (1.0 = paper geometry), %zu repetitions, seed %llu, "
      "%zu job%s\n\n",
      opts.scale, opts.repetitions,
      static_cast<unsigned long long>(opts.base_seed), jobs,
      jobs == 1 ? "" : "s");

  core::ExperimentConfig cfg;
  cfg.repetitions = opts.repetitions;
  cfg.base_seed = opts.base_seed;
  cfg.jobs = opts.jobs;
  // --comm-*/--stale-*/--adaptive-* flags reshape the control plane; at
  // their defaults no override is installed and the policy specs pass
  // through untouched, keeping the default run byte-identical.
  const std::vector<mm::PolicySpec> specs =
      apply_stale_options(policies, opts);
  core::NodeConfig comm_cfg;
  if (comm_overridden(opts) || adaptive_overridden(opts) ||
      compression_overridden(opts)) {
    comm_cfg = core::scaled_node_defaults(opts.scale);
    apply_comm_options(comm_cfg, opts);
    apply_adaptive_options(comm_cfg, opts);
    apply_compression_options(comm_cfg, opts);
    cfg.overrides = &comm_cfg;
    if (comm_overridden(opts)) {
      std::printf("comm: latency x%g, loss %g, queue %zu (%s)\n",
                  opts.comm_latency_x, opts.comm_loss, opts.comm_queue,
                  comm::to_string(opts.comm_policy));
    }
    if (adaptive_overridden(opts)) {
      std::printf("adaptive: stale-mode %s (threshold %g), "
                  "adaptive-interval %s\n",
                  mm::to_string(opts.stale_mode), opts.stale_threshold,
                  opts.adaptive_interval ? "on" : "off");
    }
    if (compression_overridden(opts)) {
      std::printf("compressed tier: %llu bytes, ratios [%g, %g], evict %s, "
                  "units %s\n",
                  static_cast<unsigned long long>(opts.compressed_bytes),
                  opts.compress_min_ratio, opts.compress_max_ratio,
                  opts.compressed_evict_demote ? "demote" : "drop",
                  opts.capacity_units == CapacityUnits::kBytes ? "bytes"
                                                               : "pages");
    }
    std::printf("\n");
  }
  // The whole policy x rep grid runs on one pool; results come back in
  // `specs` order, and all printing/CSV writing happens after this
  // barrier on the main thread.
  std::vector<core::ExperimentResult> results =
      core::run_experiments(spec, specs, cfg);
  for (const auto& policy : specs) {
    std::printf("  ran %s\n", policy.label().c_str());
  }
  std::printf("\n");
  core::print_runtime_table(std::cout, figure_id + " — " + title, results);
  std::printf("\n");
  core::print_improvements(std::cout, results, "no-tmem");
  core::print_improvements(std::cout, results, "greedy");
  if (!opts.csv_dir.empty()) {
    const std::string path = opts.csv_dir + "/" + figure_id + "_runtimes.csv";
    core::write_runtime_csv(path, results);
    std::printf("wrote %s\n", path.c_str());
  }
  // The measured grid above always runs with observability off; the
  // requested trace/metrics/audit files come from one extra dedicated run.
  run_observed(figure_id, scenario, policies, opts);
  std::printf("\n");
  return results;
}

void run_usage_figure(const std::string& figure_id, const std::string& title,
                      core::ScenarioSpec (*scenario)(double),
                      const std::vector<mm::PolicySpec>& panels,
                      const Options& opts, bool include_targets) {
  const core::ScenarioSpec spec = scenario(opts.scale);
  std::printf("=== %s: %s ===\n", figure_id.c_str(), title.c_str());
  std::printf("scenario: %s\nscale %.4g, seed %llu\n\n",
              spec.description.c_str(), opts.scale,
              static_cast<unsigned long long>(opts.base_seed));

  core::NodeConfig comm_cfg;
  const core::NodeConfig* overrides = nullptr;
  const std::vector<mm::PolicySpec> specs = apply_stale_options(panels, opts);
  if (comm_overridden(opts) || adaptive_overridden(opts) ||
      compression_overridden(opts)) {
    comm_cfg = core::scaled_node_defaults(opts.scale);
    apply_comm_options(comm_cfg, opts);
    apply_adaptive_options(comm_cfg, opts);
    apply_compression_options(comm_cfg, opts);
    overrides = &comm_cfg;
    if (comm_overridden(opts)) {
      std::printf("comm: latency x%g, loss %g, queue %zu (%s)\n\n",
                  opts.comm_latency_x, opts.comm_loss, opts.comm_queue,
                  comm::to_string(opts.comm_policy));
    }
  }

  // One seeded run per panel, fanned out over the pool; panels print in
  // order after the barrier.
  std::vector<core::ScenarioResult> runs(specs.size());
  parallel_for_each(opts.jobs, specs.size(), [&](std::size_t p) {
    runs[p] = core::run_scenario(spec, specs[p], opts.base_seed, overrides);
  });

  char panel = 'a';
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const core::ScenarioResult& run = runs[p];
    core::print_usage_panel(
        std::cout,
        strfmt("%s(%c) %s", figure_id.c_str(), panel,
               specs[p].label().c_str()),
        run, include_targets);
    if (!opts.csv_dir.empty()) {
      const std::string path = strfmt("%s/%s_%c_usage.csv",
                                      opts.csv_dir.c_str(), figure_id.c_str(),
                                      panel);
      core::write_usage_csv(path, run);
      std::printf("wrote %s\n", path.c_str());
    }
    ++panel;
  }
  run_observed(figure_id, scenario, panels, opts);
}

}  // namespace smartmem::bench
