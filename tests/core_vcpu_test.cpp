// vCPU runner: op execution, batching, sleeps, markers and stops.
#include "core/vcpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "workloads/script_workload.hpp"

namespace smartmem::core {
namespace {

using workloads::AccessPattern;
using workloads::MemOp;
using workloads::ScriptWorkload;

struct Rig {
  sim::Simulator sim;
  std::unique_ptr<hyper::Hypervisor> hyp;
  std::unique_ptr<sim::DiskDevice> disk;
  std::unique_ptr<guest::GuestKernel> kernel;

  explicit Rig(PageCount tmem = 256) {
    hyper::HypervisorConfig hcfg;
    hcfg.total_tmem_pages = tmem;
    hyp = std::make_unique<hyper::Hypervisor>(sim, hcfg);
    hyp->register_vm(1);
    disk = std::make_unique<sim::DiskDevice>(sim, sim::DiskModel{});
    guest::GuestConfig gcfg;
    gcfg.vm = 1;
    gcfg.ram_pages = 64;
    gcfg.kernel_reserved_pages = 8;
    gcfg.swap_slots = 512;
    gcfg.low_watermark = 4;
    gcfg.high_watermark = 8;
    kernel = std::make_unique<guest::GuestKernel>(sim, *hyp, *disk, gcfg);
  }

  VcpuRunner make_runner(std::vector<MemOp> ops, VcpuConfig cfg = {}) {
    return VcpuRunner(sim, *kernel,
                      std::make_unique<ScriptWorkload>(std::move(ops)), cfg);
  }
};

// What a run leaves in the guest: each page's content token and state, and
// the guest counters.
struct GuestImage {
  std::vector<PageContent> contents;
  std::vector<mem::PageState> states;
  std::vector<std::uint64_t> counters;
  bool operator==(const GuestImage&) const = default;
};

GuestImage run_image(std::vector<MemOp> ops, SimTime batch_budget,
                     PageCount pages) {
  Rig rig;
  VcpuConfig cfg;
  cfg.batch_budget = batch_budget;
  cfg.rng_seed = 11;
  auto runner = rig.make_runner(std::move(ops), cfg);
  runner.start(0);
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  GuestImage image;
  const mem::AddressSpace::Id asid = 0;  // the runner's, the kernel's first
  for (Vpn v = 0; v < pages; ++v) {
    image.contents.push_back(rig.kernel->page_content(asid, v));
    image.states.push_back(rig.kernel->page_state(asid, v));
  }
  const guest::GuestStats& st = rig.kernel->stats();
  image.counters = {st.touches,       st.faults,
                    st.zero_fills,    st.swapins_tmem,
                    st.swapins_disk,  st.swapins_readahead,
                    st.swapouts_tmem, st.swapouts_disk,
                    st.swapouts_clean, st.reclaim_runs,
                    st.pages_reclaimed};
  return image;
}

TEST(VcpuTest, NullWorkloadRejected) {
  Rig rig;
  EXPECT_THROW(VcpuRunner(rig.sim, *rig.kernel, nullptr, VcpuConfig{}),
               std::invalid_argument);
}

TEST(VcpuTest, RunsSimpleScriptToCompletion) {
  Rig rig;
  auto runner = rig.make_runner({
      MemOp::alloc(16),
      MemOp::touch(0, 0, 16, 16, AccessPattern::kSequential, true,
                   kMicrosecond),
      MemOp::marker("done"),
  });
  runner.start(0);
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  ASSERT_EQ(runner.milestones().size(), 1u);
  EXPECT_EQ(runner.milestones()[0].label, "done");
  // 16 touches at >= 1us each, plus fault costs.
  EXPECT_GT(runner.finish_time(), 16 * kMicrosecond);
}

TEST(VcpuTest, StartTimeIsHonored) {
  Rig rig;
  auto runner = rig.make_runner({MemOp::marker("m")});
  runner.start(3 * kSecond);
  rig.sim.run();
  EXPECT_EQ(runner.milestones()[0].when, 3 * kSecond);
  EXPECT_THROW(runner.start(0), std::logic_error);
}

TEST(VcpuTest, SleepAdvancesTimeWithoutBusyWork) {
  Rig rig;
  auto runner = rig.make_runner({
      MemOp::marker("before"),
      MemOp::sleep(10 * kSecond),
      MemOp::marker("after"),
  });
  runner.start(0);
  rig.sim.run();
  ASSERT_EQ(runner.milestones().size(), 2u);
  EXPECT_GE(runner.milestones()[1].when - runner.milestones()[0].when,
            10 * kSecond);
  // A sleep is one wake-up event, not thousands of batch polls.
  EXPECT_LT(rig.sim.executed_events(), 20u);
}

TEST(VcpuTest, BatchingDoesNotDistortTotalTime) {
  // The same work executed under very different batch budgets must finish
  // at (nearly) the same simulated time.
  std::vector<MemOp> ops = {
      MemOp::alloc(128),
      MemOp::touch(0, 0, 128, 4096, AccessPattern::kSequential, true,
                   2 * kMicrosecond),
  };
  SimTime coarse_finish, fine_finish;
  {
    Rig rig;
    VcpuConfig cfg;
    cfg.batch_budget = 10 * kMillisecond;
    auto runner = rig.make_runner(ops, cfg);
    runner.start(0);
    rig.sim.run();
    coarse_finish = runner.finish_time();
  }
  {
    Rig rig;
    VcpuConfig cfg;
    cfg.batch_budget = 50 * kMicrosecond;
    auto runner = rig.make_runner(ops, cfg);
    runner.start(0);
    rig.sim.run();
    fine_finish = runner.finish_time();
  }
  EXPECT_EQ(coarse_finish, fine_finish);
}

TEST(VcpuTest, RandomPatternsStayInsideWindow) {
  Rig rig;
  // Window is pages [8, 24) of a 32-page region; touching outside would
  // fault on untouched pages and change the zero-fill count.
  auto runner = rig.make_runner({
      MemOp::alloc(32),
      MemOp::touch(0, 8, 16, 2000, AccessPattern::kUniform, true, 100),
      MemOp::touch(0, 8, 16, 2000, AccessPattern::kZipf, true, 100),
  });
  runner.start(0);
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  EXPECT_LE(rig.kernel->stats().zero_fills, 16u);
}

TEST(VcpuTest, RequestStopTakesEffectAtBatchBoundary) {
  Rig rig;
  auto runner = rig.make_runner({
      MemOp::alloc(64),
      // Endless touching (script repeats forever).
      MemOp::touch(0, 0, 64, 1000000, AccessPattern::kSequential, true, 500),
  });
  runner.start(0);
  rig.sim.schedule(20 * kMillisecond, [&] { runner.request_stop(); });
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  EXPECT_GE(runner.finish_time(), 20 * kMillisecond);
  EXPECT_LT(runner.finish_time(), kSecond);
}

TEST(VcpuTest, MarkerHookFires) {
  Rig rig;
  auto runner = rig.make_runner({MemOp::marker("x"), MemOp::marker("y")});
  std::vector<std::string> seen;
  runner.set_marker_hook(
      [&](const std::string& label, SimTime) { seen.push_back(label); });
  runner.start(0);
  rig.sim.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"x", "y"}));
}

TEST(VcpuTest, DeterministicForSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    Rig rig;
    VcpuConfig cfg;
    cfg.rng_seed = seed;
    auto runner = rig.make_runner(
        {
            MemOp::alloc(64),
            MemOp::touch(0, 0, 64, 5000, AccessPattern::kZipf, true, 300),
        },
        cfg);
    runner.start(0);
    rig.sim.run();
    return runner.finish_time();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

// Random ops cut into one-touch batches must draw exactly what one long
// batch draws, leaving the guest in the same state: a batch end may not
// drop, repeat or reorder a draw.
TEST(VcpuTest, DrawOrderSurvivesBatchBoundaries) {
  const std::vector<MemOp> ops = {
      MemOp::alloc(96),
      MemOp::touch(0, 0, 96, 1500, AccessPattern::kZipf, true, 300, 0.8),
      MemOp::touch(0, 0, 96, 700, AccessPattern::kUniform, false, 300),
      MemOp::touch(0, 16, 64, 900, AccessPattern::kZipf, true, 300, 1.1),
      MemOp::touch(0, 0, 96, 1, AccessPattern::kZipf, true, 300, 0.8),
  };
  const GuestImage one_batch = run_image(ops, 3600 * kSecond, 96);
  const GuestImage one_touch_batches = run_image(ops, 1, 96);
  ASSERT_EQ(one_batch.counters[0], 3101u);  // every touch ran
  EXPECT_GT(one_batch.counters[6], 0u);  // swapouts_tmem: pages reclaimed
  EXPECT_EQ(one_touch_batches, one_batch);
}

// Two zipf ops on one window whose exponents differ by less than 0.001 each
// draw with their own exponent.
TEST(VcpuTest, NearbyZipfExponentsDrawWithTheirOwnSampler) {
  constexpr PageCount kWindow = 48;  // fits in RAM
  constexpr int kTouches = 400;
  const auto script = [](double second_s) {
    return std::vector<MemOp>{
        MemOp::alloc(kWindow),
        MemOp::touch(0, 0, kWindow, kTouches, AccessPattern::kZipf, true, 300,
                     0.9),
        MemOp::touch(0, 0, kWindow, kTouches, AccessPattern::kZipf, true, 300,
                     second_s),
    };
  };
  const GuestImage near = run_image(script(0.9004), 10 * kMillisecond, kWindow);
  const GuestImage same = run_image(script(0.9), 10 * kMillisecond, kWindow);
  EXPECT_NE(near.contents, same.contents);

  // Replay the draws, each op with its own exponent: a page's content token
  // grows with the time of its last write.
  Rng rng(11);
  const ZipfSampler first(kWindow, 0.9), second(kWindow, 0.9004);
  std::vector<int> last_write(kWindow, -1);
  for (int i = 0; i < 2 * kTouches; ++i) {
    last_write[(i < kTouches ? first : second).sample(rng)] = i;
  }
  std::vector<Vpn> written;
  for (Vpn v = 0; v < kWindow; ++v) {
    EXPECT_EQ(near.states[v] != mem::PageState::kUntouched, last_write[v] >= 0)
        << v;
    if (last_write[v] >= 0) written.push_back(v);
  }
  std::sort(written.begin(), written.end(),
            [&](Vpn a, Vpn b) { return last_write[a] < last_write[b]; });
  for (std::size_t i = 1; i < written.size(); ++i) {
    EXPECT_LT(near.contents[written[i - 1]], near.contents[written[i]]);
  }
}

TEST(VcpuTest, FreeRegionOpReleasesMemory) {
  Rig rig;
  auto runner = rig.make_runner({
      MemOp::alloc(32),
      MemOp::touch(0, 0, 32, 32, AccessPattern::kSequential, true, 100),
      MemOp::free_region(0),
      MemOp::marker("freed"),
  });
  runner.start(0);
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  EXPECT_EQ(rig.kernel->free_frames(), rig.kernel->usable_frames());
}

}  // namespace
}  // namespace smartmem::core
