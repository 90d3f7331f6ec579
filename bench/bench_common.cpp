#include "bench_common.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <type_traits>

#include "common/strfmt.hpp"
#include "common/thread_pool.hpp"

namespace smartmem::bench {

bool comm_overridden(const Options& opts) {
  return opts.comm_latency_x != 1.0 || opts.comm_loss != 0.0 ||
         opts.comm_queue != 0 ||
         opts.comm_policy != comm::QueuePolicy::kDropNewest;
}

bool compression_overridden(const Options& opts) {
  return opts.compressed_bytes != 0 || opts.compress_min_ratio != 1.5 ||
         opts.compress_max_ratio != 4.0 ||
         opts.capacity_units != CapacityUnits::kPages;
}

void apply_compression_options(core::NodeConfig& cfg, const Options& opts) {
  cfg.compressed_pool_bytes = opts.compressed_bytes;
  cfg.compressibility.min_ratio = opts.compress_min_ratio;
  cfg.compressibility.max_ratio = opts.compress_max_ratio;
  cfg.capacity_units = opts.capacity_units;
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
  // audit shows the alg4:stale-widen verdicts the flag enables.
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

// ---- Command line ---------------------------------------------------------

// size_t flags (--reps, --jobs, counts) bind through the uint64_t binder.
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

namespace {

void print_flags(std::FILE* out, const std::vector<Flag>& flags) {
  std::fprintf(out, "flags:\n");
  for (const Flag& f : flags) {
    const std::string spec = f.arg.empty() ? f.name : f.name + " " + f.arg;
    std::fprintf(out, "  %-30s %s\n", spec.c_str(), f.help.c_str());
  }
}

[[noreturn]] void usage_error(const std::vector<Flag>& flags,
                              const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  print_flags(stderr, flags);
  std::exit(2);
}

// The open bounds of the shared table as their nearest inclusive doubles:
// (0, max] is [kAboveZero, max] and [0, 1) is [0, kBelowOne].
constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
const double kBelowOne = std::nextafter(1.0, 0.0);
constexpr double kMaxReal = std::numeric_limits<double>::max();
constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint64_t>::max();

}  // namespace

void parse_flags(int argc, char** argv, const std::vector<Flag>& flags) {
  std::vector<bool> given(flags.size(), false);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_flags(stdout, flags);
      std::exit(0);
    }
    const auto it = std::find_if(
        flags.begin(), flags.end(),
        [arg](const Flag& f) { return f.name == arg; });
    if (it == flags.end()) {
      usage_error(flags, "unknown flag " + std::string(arg));
    }
    if (it->arg.empty()) {
      it->set(nullptr);
    } else {
      if (i + 1 >= argc) usage_error(flags, "missing value for " + it->name);
      const char* value = argv[++i];
      if (!it->set(value)) {
        usage_error(flags,
                    "bad value '" + std::string(value) + "' for " + it->name);
      }
    }
    given[static_cast<std::size_t>(it - flags.begin())] = true;
  }
  for (std::size_t f = 0; f < flags.size(); ++f) {
    if (given[f] && flags[f].needs && !flags[f].needs()) {
      usage_error(flags, flags[f].name + " needs " + flags[f].needs_what);
    }
  }
}

Flag::Set real(double& v, double min, double max) {
  return [&v, min, max](const char* text) {
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-' ||
        !std::isfinite(x) || x < min || x > max) {
      return false;
    }
    v = x;
    return true;
  };
}

Flag::Set count(std::uint64_t& v, std::uint64_t min, std::uint64_t max) {
  return [&v, min, max](const char* text) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' ||
        std::isdigit(static_cast<unsigned char>(text[0])) == 0 || x < min ||
        x > max) {
      return false;
    }
    v = static_cast<std::uint64_t>(x);
    return true;
  };
}

Flag::Set text(std::string& v) {
  return [&v](const char* value) {
    v = value;
    return true;
  };
}

Flag::Set directory(std::string& v) {
  return [&v](const char* value) {
    std::error_code ec;
    if (!std::filesystem::is_directory(value, ec)) return false;
    v = value;
    return true;
  };
}

Flag::Set assign(bool& v, bool value) {
  return [&v, value](const char*) {
    v = value;
    return true;
  };
}

Flag scale_flag(double& v) {
  return {"--scale", "<f>",
          strfmt("linear memory scale in [0.001, 16] (default %g; 1.0 = "
                 "paper size)",
                 v),
          real(v, 1e-3, 16.0)};
}

Flag reps_flag(std::size_t& v) {
  return {"--reps", "<n>",
          strfmt("repetitions in [1, 1000] (default %zu)", v),
          count(v, 1, 1000)};
}

Flag seed_flag(std::uint64_t& v) {
  return {"--seed", "<n>",
          strfmt("base seed (default %llu)",
                 static_cast<unsigned long long>(v)),
          count(v, 0, kMaxCount)};
}

Flag jobs_flag(std::size_t& v) {
  return {"--jobs", "<n>",
          strfmt("worker threads in [0, 4096] (default %zu; 0 = all "
                 "hardware threads)",
                 v),
          count(v, 0, 4096)};
}

Flag csv_flag(std::string& v) {
  return {"--csv", "<dir>", "write CSV files into <dir> (must exist)",
          directory(v)};
}

Options parse_options(int argc, char** argv,
                      std::initializer_list<std::string_view> reads) {
  Options o;
  const auto compressed = [&o] { return o.compressed_bytes > 0; };
  std::vector<Flag> flags = {
      scale_flag(o.scale),
      reps_flag(o.repetitions),
      seed_flag(o.base_seed),
      jobs_flag(o.jobs),
      csv_flag(o.csv_dir),
      {"--full", "", "shorthand for --scale 1.0 --reps 5",
       [&o](const char*) {
         o.scale = 1.0;
         o.repetitions = 5;
         return true;
       }},
      {"--comm-latency-x", "<f>",
       "multiply control-plane hop latencies (> 0, default 1)",
       real(o.comm_latency_x, kAboveZero, kMaxReal)},
      {"--comm-loss", "<p>",
       "per-hop message loss probability in [0, 1) (default 0)",
       real(o.comm_loss, 0.0, kBelowOne)},
      {"--comm-queue", "<n>", "bounded in-flight queue (default 0 = off)",
       count(o.comm_queue, 0, kMaxCount)},
      {"--comm-policy", "<p>", "drop-newest|drop-oldest (default drop-newest)",
       [&o](const char* t) {
         return comm::parse_queue_policy(t, o.comm_policy);
       },
       [&o] { return o.comm_queue > 0; }, "--comm-queue <n> > 0"},
      {"--stale-mode", "<m>",
       "smart-alloc staleness handling: off|widen (default off)",
       [&o](const char* t) { return mm::parse_stale_mode(t, o.stale_mode); }},
      {"--stale-threshold", "<f>",
       "sample age (intervals) counting as stale (> 0, default 1.5)",
       real(o.stale_threshold, kAboveZero, kMaxReal),
       [&o] { return o.stale_mode == mm::StaleMode::kWiden; },
       "--stale-mode widen"},
      {"--compressed-bytes", "<n>",
       "compressed-tier byte budget (default 0 = off)",
       count(o.compressed_bytes, 0, kMaxCount)},
      {"--compress-min-ratio", "<f>",
       "per-VM mean ratio lower bound (>= 1, default 1.5)",
       real(o.compress_min_ratio, 1.0, kMaxReal), compressed,
       "--compressed-bytes <n> > 0"},
      {"--compress-max-ratio", "<f>",
       "per-VM mean ratio upper bound (>= 1, default 4.0)",
       real(o.compress_max_ratio, 1.0, kMaxReal), compressed,
       "--compressed-bytes <n> > 0"},
      {"--capacity-units", "<u>",
       "pages|bytes control-plane units (default pages)",
       [&o](const char* t) {
         const std::string_view units = t;
         if (units != "pages" && units != "bytes") return false;
         o.capacity_units = units == "bytes" ? CapacityUnits::kBytes
                                             : CapacityUnits::kPages;
         return true;
       }},
      {"--trace-out", "<file>",
       "write a Perfetto trace from one extra observed run",
       text(o.trace_out)},
      {"--metrics-out", "<file>",
       "write metrics snapshots (JSONL; .csv for CSV)", text(o.metrics_out)},
      {"--audit-out", "<file>",
       "write the policy decision audit log (JSONL)", text(o.audit_out)},
      {"--trace-cats", "<list>",
       "trace categories (tmem,hyper,comm,mm,guest,workload,sim|all)",
       [&o](const char* t) {
         return obs::parse_categories(t, o.trace_categories);
       },
       [&o] { return !o.trace_out.empty(); }, "--trace-out <file>"},
  };
  if (reads.size() != 0) {
    const auto read = [&reads](std::string_view name) {
      return std::find(reads.begin(), reads.end(), name) != reads.end();
    };
    std::erase_if(flags, [&read](const Flag& f) {
      if (f.name == "--full") return !(read("--scale") && read("--reps"));
      return !read(f.name);
    });
  }
  parse_flags(argc, argv, flags);
  return o;
}

std::vector<core::ExperimentResult> run_runtime_figure(
    const std::string& figure_id, const std::string& title,
    core::ScenarioSpec (*scenario)(double),
    const std::vector<mm::PolicySpec>& policies, const Options& opts) {
  const core::ScenarioSpec spec = scenario(opts.scale);
  const std::size_t jobs = resolve_jobs(opts.jobs);
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
  // --comm-*/--compress* flags reshape the node and --stale-* the smart
  // policy specs; at their defaults no override is installed and the specs
  // pass through untouched, keeping the default run byte-identical.
  const std::vector<mm::PolicySpec> specs =
      apply_stale_options(policies, opts);
  core::NodeConfig comm_cfg;
  if (comm_overridden(opts) || compression_overridden(opts)) {
    comm_cfg = core::scaled_node_defaults(opts.scale);
    apply_comm_options(comm_cfg, opts);
    apply_compression_options(comm_cfg, opts);
    cfg.overrides = &comm_cfg;
    if (comm_overridden(opts)) {
      std::printf("comm: latency x%g, loss %g, queue %zu (%s)\n",
                  opts.comm_latency_x, opts.comm_loss, opts.comm_queue,
                  comm::to_string(opts.comm_policy));
    }
    if (compression_overridden(opts)) {
      std::printf("compressed tier: %llu bytes, ratios [%g, %g], units %s\n",
                  static_cast<unsigned long long>(opts.compressed_bytes),
                  opts.compress_min_ratio, opts.compress_max_ratio,
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
  if (comm_overridden(opts) || compression_overridden(opts)) {
    comm_cfg = core::scaled_node_defaults(opts.scale);
    apply_comm_options(comm_cfg, opts);
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
