// Perf-baseline harness: measures (a) serial vs. parallel wall-time of a
// mid-size scenario grid — the figure benches' policy x repetition fan-out —
// (b) raw events/sec of the two simulation hot paths (tmem store ops,
// simulator event dispatch), (c) the DESIGN §12 control-plane probes —
// modeled uplink bytes/interval full vs delta, and smart-alloc compute()
// decide time — and (d) the wall-time overhead of running with
// every observability pillar enabled (in-memory capture), then persists
// everything to a machine-readable JSON baseline so later PRs have a
// trajectory to compare against.
//
//   ./microbench_scaling [--scale f] [--reps n] [--jobs n] [--seed n]
//                        [--out path]
//
// Defaults: scale 0.0625, 3 reps, jobs 4, BENCH_baseline.json in the CWD.
// Wall-clock numbers are host-dependent (record the host next to the file);
// the speedup ratio is what the acceptance bar tracks: near-linear up to 4
// jobs on a >= 4-core host, and trivially ~1.0 on a single core.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/global_manager.hpp"
#include "cluster/global_policy.hpp"
#include "comm/channel.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "hyper/delta.hpp"
#include "mm/history.hpp"
#include "mm/smart_policy.hpp"
#include "obs/observer.hpp"
#include "sim/simulator.hpp"
#include "tmem/store.hpp"

namespace {

using namespace smartmem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ScalingOptions {
  double scale = 0.0625;
  std::size_t repetitions = 3;
  std::size_t jobs = 4;
  std::uint64_t base_seed = 1;
  std::string out = "BENCH_baseline.json";
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::fprintf(stderr,
               "flags: --scale <f> --reps <n> --jobs <n> --seed <n> "
               "--out <path>\n");
  std::exit(2);
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

ScalingOptions parse(int argc, char** argv) {
  ScalingOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--scale") {
      char* end = nullptr;
      o.scale = std::strtod(next(), &end);
      if (o.scale <= 0) usage_error("--scale must be > 0");
    } else if (arg == "--reps") {
      o.repetitions = static_cast<std::size_t>(parse_u64(arg, next()));
    } else if (arg == "--jobs") {
      o.jobs = static_cast<std::size_t>(parse_u64(arg, next()));
      if (o.jobs == 0) o.jobs = ThreadPool::resolve_jobs(0);
    } else if (arg == "--seed") {
      o.base_seed = parse_u64(arg, next());
    } else if (arg == "--out") {
      o.out = next();
    } else if (arg == "--help" || arg == "-h") {
      usage_error("microbench_scaling");
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  return o;
}

/// Wall-time of the fig03-style policy x rep grid at the given jobs count.
double time_grid(const ScalingOptions& o, std::size_t jobs) {
  const core::ScenarioSpec spec = core::scenario1(o.scale);
  const std::vector<mm::PolicySpec> policies = {
      mm::PolicySpec::greedy(),
      mm::PolicySpec::static_alloc(),
      mm::PolicySpec::reconf_static(),
      mm::PolicySpec::smart(0.75),
  };
  core::ExperimentConfig cfg;
  cfg.repetitions = o.repetitions;
  cfg.base_seed = o.base_seed;
  cfg.jobs = jobs;
  const auto start = Clock::now();
  const auto results = core::run_experiments(spec, policies, cfg);
  const double elapsed = seconds_since(start);
  if (results.size() != policies.size()) {
    std::fprintf(stderr, "grid run produced wrong result count\n");
    std::exit(1);
  }
  return elapsed;
}

/// Store hot path: the op mix the guest kernel generates under memory
/// pressure — frontswap put/get over a resident working set plus a steady
/// stream of cleancache (ephemeral) puts churning the eviction path once
/// the pool is full. Returns operations per wall-clock second.
double store_events_per_sec() {
  tmem::StoreConfig scfg;
  scfg.total_pages = 1 << 16;
  tmem::TmemStore store(scfg);
  const auto persistent = store.create_pool(1, tmem::PoolType::kPersistent);
  const auto ephemeral = store.create_pool(2, tmem::PoolType::kEphemeral);
  for (std::uint32_t i = 0; i < (1u << 15); ++i) {
    store.put(tmem::TmemKey{persistent, 0, i}, i | 1);  // resident swap set
  }

  constexpr std::uint32_t kOps = 6'000'000;
  const auto start = Clock::now();
  std::uint64_t sink = 0;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    switch (i & 3u) {
      case 0:  // frontswap put (replaces in place across the working set)
        store.put(tmem::TmemKey{persistent, 0, i % (1u << 15)}, i | 1);
        break;
      case 1: {  // frontswap get (persistent hits stay in place)
        const auto hit =
            store.get(tmem::TmemKey{persistent, 0, (i * 13) % (1u << 15)});
        sink += hit ? *hit : 0;
        break;
      }
      default:  // cleancache put (ephemeral; evicts oldest once full)
        store.put(tmem::TmemKey{ephemeral, 1, i}, i | 1);
        break;
    }
  }
  const double elapsed = seconds_since(start);
  if (sink == 0xdeadbeef) std::printf("impossible\n");  // keep `sink` alive
  return static_cast<double>(kOps) / elapsed;
}

/// Store per-VM accounting probe: ns per slow-reclaim call
/// (evict_ephemeral_from_vm) on a store holding 64 VMs x 1024 ephemeral
/// pages each. The pre-index implementation walked the global LRU
/// filtering by owner — O(store size) per call even when nothing was
/// evictable; the per-VM intrusive list threaded through the entries makes
/// each call O(pages actually evicted). Evicted pages are re-put between
/// rounds (untimed) so every measured sweep does real work.
double store_account_ns() {
  tmem::StoreConfig scfg;
  scfg.total_pages = 1u << 17;
  tmem::TmemStore store(scfg);
  constexpr VmId kVms = 64;
  constexpr std::uint32_t kPagesPerVm = 1024;
  std::vector<tmem::PoolId> pools;
  pools.reserve(kVms);
  for (VmId vm = 1; vm <= kVms; ++vm) {
    pools.push_back(store.create_pool(vm, tmem::PoolType::kEphemeral));
  }
  auto fill = [&] {
    for (VmId vm = 1; vm <= kVms; ++vm) {
      for (std::uint32_t i = 0; i < kPagesPerVm; ++i) {
        store.put(tmem::TmemKey{pools[vm - 1], 0, i},
                  (static_cast<std::uint64_t>(vm) << 32) | i | 1);
      }
    }
  };
  fill();

  constexpr int kRounds = 64;
  constexpr PageCount kQuota = 8;
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t evicted = 0;
  for (int r = 0; r < kRounds; ++r) {
    const auto start = Clock::now();
    for (VmId vm = 1; vm <= kVms; ++vm) {
      evicted += store.evict_ephemeral_from_vm(vm, kQuota);
      ++calls;
    }
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    fill();  // untimed: restore the evicted pages for the next sweep
  }
  if (evicted != calls * kQuota) {
    std::fprintf(stderr, "store account probe evicted an unexpected count\n");
    std::exit(1);
  }
  return static_cast<double>(ns) / static_cast<double>(calls);
}

/// Simulator dispatch: schedule/fire chains with a periodic sampler and a
/// share of cancellations, mirroring the vCPU/disk/VIRQ event mix.
double sim_events_per_sec() {
  sim::Simulator sim;
  constexpr std::uint64_t kChains = 64;
  constexpr std::uint64_t kEventsPerChain = 40'000;
  std::uint64_t fired = 0;

  struct Chain {
    sim::Simulator* sim;
    std::uint64_t* fired;
    std::uint64_t remaining;
    void operator()() const {
      ++*fired;
      if (remaining > 0) {
        sim->schedule(7, Chain{sim, fired, remaining - 1});
      }
    }
  };
  for (std::uint64_t c = 0; c < kChains; ++c) {
    sim.schedule(static_cast<SimTime>(c + 1),
                 Chain{&sim, &fired, kEventsPerChain - 1});
  }
  auto sampler = sim.schedule_periodic(1000, [] {});
  // A slice of cancelled events models torn-down samplers/timeouts.
  for (int i = 0; i < 20000; ++i) {
    sim.schedule(500000 + i, [] {}).cancel();
  }

  const auto start = Clock::now();
  sim.run_until(static_cast<SimTime>(kEventsPerChain) * 8);
  sampler.cancel();
  sim.run();
  const double elapsed = seconds_since(start);
  return static_cast<double>(sim.executed_events()) / elapsed;
}

/// Channel hot path: messages/sec through comm::Channel<T> send/deliver,
/// the per-message cost the control plane adds over raw event dispatch.
/// 32 self-re-sending ping chains keep the in-flight map populated like a
/// busy fabric would.
double channel_msgs_per_sec() {
  sim::Simulator sim;
  comm::ChannelConfig cfg;
  cfg.name = "bench";
  cfg.latency = comm::LatencySpec::fixed_at(kMicrosecond);
  comm::Channel<std::uint64_t> chan(sim, cfg);

  constexpr std::uint64_t kChains = 32;
  constexpr std::uint64_t kMessages = 2'000'000;
  chan.open([&chan](const std::uint64_t& v) {
    if (v < kMessages) chan.send(v + kChains);
  });
  for (std::uint64_t c = 0; c < kChains; ++c) chan.send(c);

  const auto start = Clock::now();
  sim.run();
  const double elapsed = seconds_since(start);
  const auto delivered = chan.stats().delivered;
  if (delivered < kMessages / kChains) {
    std::fprintf(stderr, "channel bench delivered too few messages\n");
    std::exit(1);
  }
  return static_cast<double>(delivered) / elapsed;
}

/// Rack control-plane hot path: full GlobalManager decisions/sec at 4
/// nodes — roll-up ingestion, global-smart (node-level Algorithm 4 +
/// Equation 2) and quota fan-out. Roll-ups rotate which node reports
/// failed puts so every decision recomputes and re-sends a changed vector
/// (suppression never short-circuits the measured path).
double cluster_rebalance_per_sec() {
  sim::Simulator sim;
  cluster::GlobalManagerConfig gcfg;
  gcfg.suppress_unchanged = false;
  cluster::GlobalManager gm(
      sim, std::make_unique<cluster::GlobalSmartPolicy>(), gcfg);
  std::uint64_t sink = 0;
  gm.set_sender([&sink](cluster::NodeId, const cluster::NodeQuotaMsg& msg) {
    sink += msg.quota;
  });

  constexpr std::uint64_t kDecisions = 300'000;
  constexpr std::uint32_t kNodes = 4;
  const PageCount phys = 1u << 18;
  const auto start = Clock::now();
  for (std::uint64_t d = 0; d < kDecisions; ++d) {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      cluster::NodeStats ns;
      ns.node = n;
      ns.seq = d + 1;
      ns.phys_tmem = phys;
      ns.quota = phys;
      ns.used = n == d % kNodes ? phys : phys / 8;
      ns.puts_total = 1000;
      ns.puts_succ = n == d % kNodes ? 900 : 1000;
      gm.on_node_stats(ns);
    }
    gm.decide();
  }
  const double elapsed = seconds_since(start);
  if (gm.decisions() != kDecisions || sink == 0) {
    std::fprintf(stderr, "cluster rebalance bench made no decisions\n");
    std::exit(1);
  }
  return static_cast<double>(kDecisions) / elapsed;
}

/// Control-plane encoding probe (DESIGN §12): modeled wire bytes per
/// sampling interval of the MemStats uplink at 128 VMs with 8 VMs changing
/// per interval, full-vector vs delta (resync every 16). Deterministic —
/// pure function of the wire-size model, no wall clock involved.
struct ControlBytes {
  double full_bpi = 0.0;
  double delta_bpi = 0.0;
};

ControlBytes control_bytes_probe() {
  constexpr std::size_t kVms = 128;
  constexpr std::size_t kIntervals = 512;
  constexpr std::size_t kDirty = 8;

  comm::DeltaConfig dcfg;
  dcfg.resync_every = 16;
  hyper::StatsDeltaEncoder enc(dcfg);

  hyper::MemStats s;
  s.total_tmem = 1u << 18;
  s.free_tmem = 1u << 17;
  s.vm_count = kVms;
  s.vm.resize(kVms);
  for (std::size_t i = 0; i < kVms; ++i) {
    s.vm[i].vm_id = static_cast<VmId>(i + 1);
    s.vm[i].tmem_used = (1u << 18) / kVms;
  }

  std::uint64_t full_bytes = 0;
  std::uint64_t delta_bytes = 0;
  for (std::size_t interval = 1; interval <= kIntervals; ++interval) {
    for (std::size_t k = 0; k < kDirty; ++k) {
      auto& vm = s.vm[(interval * kDirty + k) % kVms];
      vm.puts_total += 100;
      vm.puts_succ += 90;
      vm.cumul_puts_failed += 10;
    }
    s.seq = interval;
    s.when = static_cast<SimTime>(interval) * kSecond;
    full_bytes += wire_size(s);
    delta_bytes += wire_size(enc.encode(s));
  }
  ControlBytes out;
  out.full_bpi = static_cast<double>(full_bytes) / kIntervals;
  out.delta_bpi = static_cast<double>(delta_bytes) / kIntervals;
  return out;
}

/// MM decide-time probe (DESIGN §12): ns per smart-alloc compute() over
/// 1024 VMs when only ~16 change per interval (a rotating window of VMs
/// alternating demand spikes and slack). Each output is folded back into
/// the sample so the stream stays self-consistent. Wall-clock,
/// host-dependent.
double mm_decide_probe() {
  constexpr std::size_t kVms = 1024;
  constexpr std::size_t kRounds = 1024;
  constexpr std::size_t kDirty = 8;
  const PageCount total = 1u << 20;

  auto make_stats = [&] {
    hyper::MemStats s;
    s.total_tmem = total;
    s.free_tmem = total / 2;
    s.vm_count = kVms;
    s.vm.resize(kVms);
    for (std::size_t i = 0; i < kVms; ++i) {
      s.vm[i].vm_id = static_cast<VmId>(i + 1);
      // Targets start at a quarter share: the occasional grows below fit
      // inside the remaining headroom, so the Eq. 2 renormalization stays
      // out of the measured steady state.
      s.vm[i].mm_target = total / (4 * kVms);
      s.vm[i].tmem_used = total / (4 * kVms);
    }
    return s;
  };

  // Mutates the round's window: counters churn (successful puts, usage
  // pinned on target) without tripping any Algorithm 4 condition; every
  // 16th round the first window VM fails its puts and earns a grow.
  // Entries touched the round before settle back (counters to zero), which
  // changes them once more — exactly what a real sample stream does.
  auto mutate = [&](hyper::MemStats& s, std::size_t round) {
    if (round > 0) {
      for (std::size_t k = 0; k < kDirty; ++k) {
        const std::size_t i = ((round - 1) * kDirty + k) % kVms;
        s.vm[i].puts_total = 0;
        s.vm[i].puts_succ = 0;
        s.vm[i].tmem_used = s.vm[i].mm_target;
      }
    }
    for (std::size_t k = 0; k < kDirty; ++k) {
      const std::size_t i = (round * kDirty + k) % kVms;
      auto& vm = s.vm[i];
      if (k == 0 && round % 16 == 0) {
        vm.puts_total = 100;
        vm.puts_succ = 40;
        vm.cumul_puts_failed += 60;
      } else {
        vm.puts_total = 100;
        vm.puts_succ = 100;
      }
    }
  };

  auto apply = [](hyper::MemStats& s, const hyper::MmOut& out) {
    for (const auto& t : out) {
      auto& vm = s.vm[t.vm_id - 1];
      vm.mm_target = t.mm_target;
      vm.tmem_used = t.mm_target;
    }
  };

  mm::SmartPolicy policy(mm::SmartPolicyConfig{});  // P=0.75%, stale off
  mm::StatsHistory history;
  mm::PolicyContext ctx;
  ctx.total_tmem = total;
  ctx.history = &history;
  hyper::MemStats s = make_stats();
  std::uint64_t ns = 0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    mutate(s, r);
    s.seq = r + 1;
    history.record(s);
    const auto start = Clock::now();
    const hyper::MmOut out = policy.compute(s, ctx);
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    apply(s, out);
  }
  return static_cast<double>(ns) / kRounds;
}

/// Observability overhead: seeded smart-policy runs of the SAME scenario-1
/// grid cell with all three obs pillars capturing in memory (no file I/O)
/// vs. obs off. Both variants share one node config, so the delta is pure
/// instrumentation cost. The on-config samples the two hot guest-path span
/// families 1-in-8 (TraceConfig::sample_every) — the shipped default for
/// heavy observed runs; everything else records unconditionally.
///
/// Noise discipline, sized for a shared 1-core CI box whose adjacent
/// identical runs can differ by 25%: the probe halves the scenario scale
/// (shorter runs -> more repetitions in the same wall budget), interleaves
/// 20 off/on pairs so background drift biases both variants equally, and
/// times each side twice per pair keeping the minimum (for a CPU-bound run
/// the minimum is the least-perturbed observation — spikes only ever add
/// time). It reports the median pair ratio; the ± spread is the standard
/// error of that median (1.2533 * 1.4826 * MAD / sqrt(n)) — the
/// uncertainty of the *reported number*, which tightens with sample count,
/// rather than the raw pair range, which a single noisy neighbor widens
/// forever. The <5% acceptance bar is judged against median and SE.
struct ObsOverhead {
  double pct = 0.0;     // median over pairs
  double spread = 0.0;  // ± standard error of the median, in pct points
};

ObsOverhead obs_overhead(const ScalingOptions& o) {
  const double probe_scale = o.scale / 2.0;
  const core::ScenarioSpec spec = core::scenario1(probe_scale);
  const mm::PolicySpec policy = mm::PolicySpec::smart(0.75);
  const std::size_t pairs = 20;

  auto timed_run = [&](const core::NodeConfig* overrides) {
    const auto start = Clock::now();
    core::run_scenario(spec, policy, o.base_seed, overrides);
    return seconds_since(start);
  };
  auto best_of_two = [&](const core::NodeConfig* overrides) {
    return std::min(timed_run(overrides), timed_run(overrides));
  };

  core::NodeConfig off_cfg = core::scaled_node_defaults(probe_scale);
  core::NodeConfig on_cfg = core::scaled_node_defaults(probe_scale);
  on_cfg.obs = obs::ObsConfig::capture_all();
  // The shipped default for heavy observed runs: hot guest-path spans
  // sampled 1-in-8, everything else recording unconditionally.
  on_cfg.obs.trace_sample_every = 8;
  // One throwaway pair warms the allocator and page-cache state so the
  // first measured pair is not systematically slower.
  timed_run(&off_cfg);
  timed_run(&on_cfg);
  std::vector<double> pct;
  for (std::size_t r = 0; r < pairs; ++r) {
    const double off = best_of_two(&off_cfg);
    const double on = best_of_two(&on_cfg);
    if (off > 0) pct.push_back(100.0 * (on - off) / off);
  }
  ObsOverhead out;
  if (pct.empty()) return out;
  std::sort(pct.begin(), pct.end());
  out.pct = pct[pct.size() / 2];
  std::vector<double> dev;
  dev.reserve(pct.size());
  for (const double p : pct) dev.push_back(std::fabs(p - out.pct));
  std::sort(dev.begin(), dev.end());
  const double mad = dev[dev.size() / 2];
  out.spread = 1.2533 * 1.4826 * mad / std::sqrt(static_cast<double>(pct.size()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const ScalingOptions opts = parse(argc, argv);
  const std::size_t hw = ThreadPool::resolve_jobs(0);
  // A speedup figure measured with more jobs than hardware threads says
  // nothing about the engine — publish it flagged as unreliable rather than
  // letting a 1-core CI box record "speedup_j4 = 0.92" as a regression.
  const bool speedup_reliable = hw >= opts.jobs && hw > 1;

  std::printf("== microbench_scaling ==\n");
  std::printf("host: %zu hardware thread(s); measuring jobs=%zu%s\n\n", hw,
              opts.jobs,
              speedup_reliable
                  ? ""
                  : "  [speedup UNRELIABLE: fewer cores than jobs]");

  std::printf("[1/5] figure grid, serial (4 policies x %zu reps, scale %g)\n",
              opts.repetitions, opts.scale);
  const double serial_s = time_grid(opts, 1);
  std::printf("      %.3f s\n", serial_s);

  std::printf("[2/5] figure grid, %zu jobs\n", opts.jobs);
  const double parallel_s = time_grid(opts, opts.jobs);
  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
  std::printf("      %.3f s  (speedup %.2fx)\n", parallel_s, speedup);

  std::printf("[3/5] hot paths\n");
  const double store_eps = store_events_per_sec();
  std::printf("      tmem store: %.3g ops/s\n", store_eps);
  const double account_ns = store_account_ns();
  std::printf("      store per-VM reclaim: %.0f ns/call (64 VMs, quota 8)\n",
              account_ns);
  const double sim_eps = sim_events_per_sec();
  std::printf("      simulator:  %.3g events/s\n", sim_eps);
  const double chan_mps = channel_msgs_per_sec();
  std::printf("      channel:    %.3g msgs/s\n", chan_mps);
  const double rebalance_ps = cluster_rebalance_per_sec();
  std::printf("      cluster gm: %.3g rebalances/s (4 nodes)\n", rebalance_ps);

  std::printf("[4/5] control plane (DESIGN 12: delta encoding, decide time)\n");
  const ControlBytes cb = control_bytes_probe();
  std::printf("      uplink bytes/interval: full %.1f, delta %.1f (%.1fx)\n",
              cb.full_bpi, cb.delta_bpi,
              cb.delta_bpi > 0 ? cb.full_bpi / cb.delta_bpi : 0.0);
  const double decide_ns = mm_decide_probe();
  std::printf("      mm decide (1024 VMs, ~16 changed): %.0f ns\n",
              decide_ns);

  std::printf("[5/5] observability overhead (all pillars, in-memory)\n");
  const ObsOverhead obs = obs_overhead(opts);
  std::printf("      %+.2f%% +/- %.2f%% vs. obs-off "
              "(median of 20 best-of-2 pairs +/- SE, "
              "hot spans sampled 1-in-8)\n",
              obs.pct, obs.spread);

  std::ofstream out(opts.out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opts.out.c_str());
    return 1;
  }
  char buf[1536];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"schema\": 1,\n"
                "  \"hardware_concurrency\": %zu,\n"
                "  \"grid\": {\n"
                "    \"scale\": %g,\n"
                "    \"policies\": 4,\n"
                "    \"repetitions\": %zu,\n"
                "    \"serial_s\": %.4f,\n"
                "    \"parallel_s\": %.4f,\n"
                "    \"jobs\": %zu\n"
                "  },\n"
                "  \"speedup_j%zu\": %.3f,\n"
                "  \"speedup_reliable\": %s,\n"
                "  \"events_per_sec\": %.1f,\n"
                "  \"store_account_ns\": %.1f,\n"
                "  \"sim_events_per_sec\": %.1f,\n"
                "  \"comm_msgs_per_sec\": %.1f,\n"
                "  \"cluster_rebalance_per_sec\": %.1f,\n"
                "  \"control_bytes_per_interval_full\": %.1f,\n"
                "  \"control_bytes_per_interval_delta\": %.1f,\n"
                "  \"mm_decide_ns_classic\": %.1f,\n"
                "  \"obs_overhead_pct\": %.2f,\n"
                "  \"obs_overhead_spread_pct\": %.2f\n"
                "}\n",
                hw, opts.scale, opts.repetitions, serial_s, parallel_s,
                opts.jobs, opts.jobs, speedup,
                speedup_reliable ? "true" : "false", store_eps, account_ns,
                sim_eps, chan_mps, rebalance_ps, cb.full_bpi, cb.delta_bpi,
                decide_ns, obs.pct, obs.spread);
  out << buf;
  std::printf("\nwrote %s\n", opts.out.c_str());
  return 0;
}
