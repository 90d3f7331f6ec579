// Observability overhead probe: the check behind the < 5 % obs bar.
//
// Seeded smart-policy runs of the SAME scenario-1 cell (scale 0.03125,
// seed 1) with all three obs pillars capturing in memory (no file I/O)
// vs. obs off. Both variants share one node config, so the delta is pure
// instrumentation cost. The on-config samples the two hot guest-path span
// families 1-in-8 (TraceConfig::sample_every) — the shipped default for
// heavy observed runs; everything else records unconditionally.
//
// Noise discipline, sized for a shared CI box whose adjacent identical runs
// can differ by 25%: one throwaway pair warms the allocator, then 20 off/on
// pairs are interleaved so background drift biases both variants equally,
// and each side is timed twice per pair keeping the minimum (for a
// CPU-bound run the minimum is the least-perturbed observation — spikes
// only ever add time). It reports the median pair ratio; the ± spread is
// the standard error of that median (1.2533 * 1.4826 * MAD / sqrt(n)) —
// the uncertainty of the *reported number*, which tightens with sample
// count, rather than the raw pair range, which a single noisy neighbor
// widens forever. The bar is judged against median and SE.
//
//   ./obs_overhead        (takes no flags; ~10 s on a 4-vCPU host)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "obs/observer.hpp"

namespace {

using namespace smartmem;
using Clock = std::chrono::steady_clock;

constexpr double kScale = 0.03125;
constexpr std::uint64_t kSeed = 1;
constexpr std::size_t kPairs = 20;

struct ObsOverhead {
  double pct = 0.0;     // median over pairs
  double spread = 0.0;  // ± standard error of the median, in pct points
};

ObsOverhead obs_overhead() {
  const core::ScenarioSpec spec = core::scenario1(kScale);
  const mm::PolicySpec policy = mm::PolicySpec::smart(0.75);

  auto timed_run = [&](const core::NodeConfig* overrides) {
    const auto start = Clock::now();
    core::run_scenario(spec, policy, kSeed, overrides);
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto best_of_two = [&](const core::NodeConfig* overrides) {
    return std::min(timed_run(overrides), timed_run(overrides));
  };

  core::NodeConfig off_cfg = core::scaled_node_defaults(kScale);
  core::NodeConfig on_cfg = core::scaled_node_defaults(kScale);
  on_cfg.obs = obs::ObsConfig::capture_all();
  on_cfg.obs.trace_sample_every = 8;
  timed_run(&off_cfg);
  timed_run(&on_cfg);
  std::vector<double> pct;
  for (std::size_t r = 0; r < kPairs; ++r) {
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
  out.spread =
      1.2533 * 1.4826 * mad / std::sqrt(static_cast<double>(pct.size()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown flag: %s\nusage: %s (takes no flags)\n",
                 argv[1], argv[0]);
    return 2;
  }
  std::printf("obs overhead: scenario 1, scale %g, seed %llu, %zu hardware "
              "thread(s)\n",
              kScale, static_cast<unsigned long long>(kSeed),
              resolve_jobs(0));
  const ObsOverhead obs = obs_overhead();
  std::printf("obs_overhead_pct: %+.2f +/- %.2f (median of %zu best-of-2 "
              "off/on pairs +/- SE, hot spans sampled 1-in-8)\n",
              obs.pct, obs.spread, kPairs);
  return 0;
}
