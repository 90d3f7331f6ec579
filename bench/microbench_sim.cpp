// Microbenchmarks of the simulation substrate: event queue throughput and
// the guest-kernel hot path (the per-page-touch cost that dominates the
// wall-clock time of full-scale scenario runs).
#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.hpp"
#include "guest/guest_kernel.hpp"
#include "hyper/hypervisor.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace smartmem;

void BM_EventScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule((i * 37) % 500, [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleAndRun);

void BM_GuestTouchResident(benchmark::State& state) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 1 << 14;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);
  sim::DiskDevice disk(sim, sim::DiskModel{});
  guest::GuestConfig gcfg;
  gcfg.vm = 1;
  gcfg.ram_pages = 1 << 14;
  gcfg.kernel_reserved_pages = 1 << 10;
  gcfg.swap_slots = 1 << 15;
  guest::GuestKernel kernel(sim, hyp, disk, gcfg);
  const auto asid = kernel.create_address_space();
  const Vpn base = kernel.alloc_region(asid, 1 << 12);
  SimTime t = 0;
  for (Vpn v = base; v < base + (1 << 12); ++v) {
    t = kernel.touch(asid, v, true, t).end;
  }
  Vpn v = base;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.touch(asid, v, false, t));
    if (++v == base + (1 << 12)) v = base;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuestTouchResident);

void BM_GuestTouchThrashingTmem(benchmark::State& state) {
  // Working set 2x usable RAM with ample tmem: every touch cycles through
  // reclaim + frontswap put + later get. This is the simulator's worst case.
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 1 << 14;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);
  sim::DiskDevice disk(sim, sim::DiskModel{});
  guest::GuestConfig gcfg;
  gcfg.vm = 1;
  gcfg.ram_pages = 1 << 11;
  gcfg.kernel_reserved_pages = 1 << 8;
  gcfg.swap_slots = 1 << 14;
  guest::GuestKernel kernel(sim, hyp, disk, gcfg);
  const auto asid = kernel.create_address_space();
  const PageCount region = 1 << 12;
  const Vpn base = kernel.alloc_region(asid, region);
  SimTime t = 0;
  Vpn v = base;
  for (auto _ : state) {
    t = kernel.touch(asid, v, true, t).end;
    if (++v == base + region) v = base;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuestTouchThrashingTmem);

// One zipf draw at s = 0.9 over a window of state.range(0) pages. Windows
// up to the sampler's 4096-rank table bound are tabulated whole; past it,
// draws in the tail take the table-free computation.
void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 0.9);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(134)->Arg(1209)->Arg(2598)->Arg(32768)->Arg(262144);

}  // namespace

BENCHMARK_MAIN();
