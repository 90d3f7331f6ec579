// Microbenchmarks of the Memory Manager policy computations: the per-second
// decision cost that would run in the privileged domain. Even the smart
// policy must be microseconds per interval — it is, by orders of magnitude.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "mm/greedy_policy.hpp"
#include "mm/reconf_static_policy.hpp"
#include "mm/smart_policy.hpp"
#include "mm/static_policy.hpp"
#include "mm/swap_rate_policy.hpp"

namespace {

using namespace smartmem;

hyper::MemStats make_stats(std::uint32_t vms, Rng& rng) {
  hyper::MemStats stats;
  stats.total_tmem = 262144;
  stats.vm_count = vms;
  for (VmId id = 1; id <= vms; ++id) {
    hyper::VmMemStats v;
    v.vm_id = id;
    v.puts_total = rng.uniform(10000);
    v.puts_succ = v.puts_total - rng.uniform(v.puts_total + 1);
    v.tmem_used = rng.uniform(stats.total_tmem);
    v.mm_target = stats.total_tmem / vms;
    v.cumul_puts_failed = rng.uniform(1000);
    stats.vm.push_back(v);
  }
  return stats;
}

template <typename PolicyT, typename... Args>
void run_policy_bench(benchmark::State& state, Args&&... args) {
  PolicyT policy(std::forward<Args>(args)...);
  mm::PolicyContext ctx;
  ctx.total_tmem = 262144;
  Rng rng(1);
  const auto stats = make_stats(static_cast<std::uint32_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.compute(stats, ctx));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_GreedyPolicy(benchmark::State& state) {
  run_policy_bench<mm::GreedyPolicy>(state);
}
BENCHMARK(BM_GreedyPolicy)->Arg(3)->Arg(64);

void BM_StaticPolicy(benchmark::State& state) {
  run_policy_bench<mm::StaticPolicy>(state);
}
BENCHMARK(BM_StaticPolicy)->Arg(3)->Arg(64);

void BM_ReconfStaticPolicy(benchmark::State& state) {
  run_policy_bench<mm::ReconfStaticPolicy>(state);
}
BENCHMARK(BM_ReconfStaticPolicy)->Arg(3)->Arg(64);

void BM_SmartPolicy(benchmark::State& state) {
  run_policy_bench<mm::SmartPolicy>(state, mm::SmartPolicyConfig{0.75, 0});
}
BENCHMARK(BM_SmartPolicy)->Arg(3)->Arg(64);

void BM_SwapRatePolicy(benchmark::State& state) {
  run_policy_bench<mm::SwapRatePolicy>(state);
}
BENCHMARK(BM_SwapRatePolicy)->Arg(3)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
