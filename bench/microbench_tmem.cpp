// Microbenchmarks of the tmem store and the hypervisor hypercall layer:
// the wall-clock cost of the simulator's own data structures (not simulated
// time). Useful to check the page-granular model stays fast enough for
// full-scale (1 GiB) scenario runs.
#include <benchmark/benchmark.h>

#include "hyper/hypervisor.hpp"
#include "tmem/store.hpp"

namespace {

using namespace smartmem;

void BM_StorePut(benchmark::State& state) {
  const auto capacity = static_cast<PageCount>(state.range(0));
  tmem::StoreConfig scfg;
  scfg.total_pages = capacity;
  tmem::TmemStore store(scfg);
  const auto pool = store.create_pool(1, tmem::PoolType::kPersistent);
  std::uint32_t i = 0;
  for (auto _ : state) {
    ++i;
    const tmem::TmemKey key{pool, 0, i % static_cast<std::uint32_t>(capacity)};
    benchmark::DoNotOptimize(store.put(key, i));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorePut)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_StoreGetHit(benchmark::State& state) {
  const auto capacity = static_cast<PageCount>(state.range(0));
  tmem::StoreConfig scfg;
  scfg.total_pages = capacity;
  tmem::TmemStore store(scfg);
  const auto pool = store.create_pool(1, tmem::PoolType::kPersistent);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    store.put(tmem::TmemKey{pool, 0, i}, i);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    const tmem::TmemKey key{pool, 0, i++ % static_cast<std::uint32_t>(capacity)};
    benchmark::DoNotOptimize(store.get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreGetHit)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_StorePutFlushCycle(benchmark::State& state) {
  tmem::StoreConfig scfg;
  scfg.total_pages = 1 << 16;
  tmem::TmemStore store(scfg);
  const auto pool = store.create_pool(1, tmem::PoolType::kPersistent);
  std::uint32_t i = 0;
  for (auto _ : state) {
    const tmem::TmemKey key{pool, 0, i++};
    store.put(key, i);
    store.flush_page(key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorePutFlushCycle);

void BM_EphemeralEvictionChurn(benchmark::State& state) {
  // Pool permanently full: every put evicts the LRU ephemeral page.
  tmem::StoreConfig scfg;
  scfg.total_pages = 1 << 10;
  tmem::TmemStore store(scfg);
  const auto pool = store.create_pool(1, tmem::PoolType::kEphemeral);
  std::uint32_t i = 0;
  for (auto _ : state) {
    ++i;
    store.put(tmem::TmemKey{pool, 1, i}, i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EphemeralEvictionChurn);

void BM_HypervisorPutPath(benchmark::State& state) {
  // Algorithm 1 end to end: target check + store insert + counters.
  sim::Simulator sim;
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = 1 << 18;
  hyper::Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);
  hyp.set_targets({{1, 1 << 17}});
  std::uint32_t i = 0;
  for (auto _ : state) {
    ++i;
    const auto idx = i % (1u << 17);
    benchmark::DoNotOptimize(
        hyp.put(1, tmem::PoolType::kPersistent, 0, idx, i));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypervisorPutPath);

void BM_HypervisorFailedPut(benchmark::State& state) {
  // The E_TMEM fast path: target zero, every put rejected.
  sim::Simulator sim;
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = 1 << 12;
  hyper::Hypervisor hyp(sim, cfg);
  hyp.register_vm(1);
  hyp.set_targets({{1, 0}});
  std::uint32_t i = 0;
  for (auto _ : state) {
    ++i;
    benchmark::DoNotOptimize(hyp.put(1, tmem::PoolType::kPersistent, 0, i, i));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypervisorFailedPut);

void BM_Snapshot(benchmark::State& state) {
  sim::Simulator sim;
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = 1 << 16;
  hyper::Hypervisor hyp(sim, cfg);
  for (VmId vm = 1; vm <= static_cast<VmId>(state.range(0)); ++vm) {
    hyp.register_vm(vm);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hyp.snapshot());
  }
}
BENCHMARK(BM_Snapshot)->Arg(3)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
