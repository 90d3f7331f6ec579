// Guest kernel model: fault handling, PFRA reclaim, and the frontswap path.
#include "guest/guest_kernel.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "hyper/hypervisor.hpp"
#include "sim/disk.hpp"
#include "sim/simulator.hpp"

namespace smartmem::guest {
namespace {

struct Rig {
  sim::Simulator sim;
  std::unique_ptr<hyper::Hypervisor> hyp;
  std::unique_ptr<sim::DiskDevice> disk;
  std::unique_ptr<GuestKernel> kernel;

  explicit Rig(PageCount tmem_pages, GuestConfig cfg = {},
               PageCount ram = 64) {
    hyper::HypervisorConfig hcfg;
    hcfg.total_tmem_pages = tmem_pages;
    hyp = std::make_unique<hyper::Hypervisor>(sim, hcfg);
    hyp->register_vm(1);
    disk = std::make_unique<sim::DiskDevice>(sim, sim::DiskModel{});
    cfg.vm = 1;
    cfg.ram_pages = ram;
    cfg.kernel_reserved_pages = 8;
    if (cfg.swap_slots == 0) cfg.swap_slots = 512;
    if (cfg.low_watermark == 0) cfg.low_watermark = 4;
    if (cfg.high_watermark == 0) cfg.high_watermark = 8;
    kernel = std::make_unique<GuestKernel>(sim, *hyp, *disk, cfg);
  }
};

// The one map from a put or get hypercall's outcome to guest time. Every
// cost field is distinct, so a put/get or tier mix-up changes the charge.
TEST(GuestCostTest, ChargesEachTmemOpOutcome) {
  CostModel costs;
  costs.tmem_put = 6 * kMicrosecond;
  costs.tmem_get = 7 * kMicrosecond;
  costs.tmem_put_nvm = 18 * kMicrosecond;
  costs.tmem_get_nvm = 14 * kMicrosecond;
  costs.tmem_put_compressed = 9 * kMicrosecond;
  costs.tmem_get_compressed = 8 * kMicrosecond;
  costs.tmem_put_failed = 3 * kMicrosecond;
  // A fault-free lending round trip (2 x 40 us hops + 5 us donor service)
  // and the default give-up budget (3 attempts x 2 ms timeout).
  constexpr SimTime kRtt = 85 * kMicrosecond;
  constexpr SimTime kGiveUp = 3 * 2 * kMillisecond;

  using hyper::OpStatus;
  using tmem::Tier;
  constexpr SimTime us = kMicrosecond;
  struct Case {
    const char* name;
    bool put;
    hyper::TmemOp op;
    SimTime charge;
  };
  const Case cases[] = {
      {"put dram", true, {OpStatus::kSuccess, Tier::kDram}, 6 * us},
      {"put compressed", true, {OpStatus::kSuccess, Tier::kCompressed}, 9 * us},
      {"put nvm", true, {OpStatus::kSuccess, Tier::kNvm}, 18 * us},
      {"put remote", true, {OpStatus::kSuccess, Tier::kRemote, kRtt},
       91 * us},
      {"put failed", true, {OpStatus::kNoCapacity}, 3 * us},
      {"put given up", true, {OpStatus::kNoCapacity, Tier::kRemote, kGiveUp},
       6003 * us},
      {"get dram", false, {OpStatus::kSuccess, Tier::kDram}, 7 * us},
      {"get compressed", false, {OpStatus::kSuccess, Tier::kCompressed},
       8 * us},
      {"get nvm", false, {OpStatus::kSuccess, Tier::kNvm}, 14 * us},
      {"get remote", false, {OpStatus::kSuccess, Tier::kRemote, kRtt},
       92 * us},
      {"get rescued after a give-up", false,
       {OpStatus::kSuccess, Tier::kRemote, kGiveUp}, 6007 * us},
      {"get failed", false, {OpStatus::kBadVm}, 3 * us},
      {"get given up", false, {OpStatus::kNotFound, Tier::kRemote, kGiveUp},
       6003 * us},
      {"cleancache miss", false, {OpStatus::kNotFound}, 3 * us},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(costs.tmem_op(c.op, c.put), c.charge);
  }
}

TEST(GuestKernelTest, RejectsBadConfig) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 16;
  hyper::Hypervisor hyp(sim, hcfg);
  sim::DiskDevice disk(sim, sim::DiskModel{});
  GuestConfig cfg;
  cfg.vm = 1;  // not registered
  cfg.ram_pages = 64;
  cfg.swap_slots = 64;
  EXPECT_THROW(GuestKernel(sim, hyp, disk, cfg), std::invalid_argument);
  hyp.register_vm(1);
  cfg.ram_pages = 4;
  cfg.kernel_reserved_pages = 4;  // reserved >= RAM
  EXPECT_THROW(GuestKernel(sim, hyp, disk, cfg), std::invalid_argument);
  cfg.ram_pages = 2;  // reserved > RAM: rejected before sizing the frames
  EXPECT_THROW(GuestKernel(sim, hyp, disk, cfg), std::invalid_argument);
}

// Frame numbers live in a 28-bit page-table field. A RAM size whose usable
// frames do not fit is rejected before any table is sized by it: were the
// check missing, sizing the frame allocator for 2^40 frames would throw
// std::length_error or std::bad_alloc instead.
TEST(GuestKernelTest, RejectsRamBeyondTheFrameField) {
  sim::Simulator sim;
  hyper::Hypervisor hyp(sim, hyper::HypervisorConfig{});
  hyp.register_vm(1);
  sim::DiskDevice disk(sim, sim::DiskModel{});
  GuestConfig cfg;
  cfg.vm = 1;
  cfg.swap_slots = 64;
  cfg.ram_pages = PageCount{1} << 40;
  EXPECT_THROW(GuestKernel(sim, hyp, disk, cfg), std::invalid_argument);
}

TEST(GuestKernelTest, ZeroFillFirstTouch) {
  Rig rig(16);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 4);
  const auto r = rig.kernel->touch(asid, base, /*write=*/false, 0);
  EXPECT_EQ(r.outcome, TouchOutcome::kZeroFill);
  const auto& costs = rig.kernel->config().costs;
  EXPECT_EQ(r.end, costs.fault_overhead + costs.zero_fill);
  EXPECT_EQ(rig.kernel->page_state(asid, base), mem::PageState::kResident);
  EXPECT_EQ(rig.kernel->resident_pages(asid), 1u);
  EXPECT_EQ(rig.kernel->page_content(asid, base), 0u);  // fresh zero page
}

TEST(GuestKernelTest, ResidentTouchIsFree) {
  Rig rig(16);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 1);
  const SimTime t1 = rig.kernel->touch(asid, base, false, 0).end;
  const auto r = rig.kernel->touch(asid, base, false, t1);
  EXPECT_EQ(r.outcome, TouchOutcome::kResidentHit);
  EXPECT_EQ(r.end, t1);
}

TEST(GuestKernelTest, WriteUpdatesContentToken) {
  Rig rig(16);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 1);
  rig.kernel->touch(asid, base, true, 0);
  const PageContent c1 = rig.kernel->page_content(asid, base);
  rig.kernel->touch(asid, base, true, 0);
  const PageContent c2 = rig.kernel->page_content(asid, base);
  EXPECT_NE(c1, 0u);
  EXPECT_NE(c1, c2);
}

TEST(GuestKernelTest, TouchUnmappedThrows) {
  Rig rig(16);
  const auto asid = rig.kernel->create_address_space();
  EXPECT_THROW(rig.kernel->touch(asid, 0, false, 0), std::out_of_range);
  rig.kernel->alloc_region(asid, 1);
  EXPECT_THROW(rig.kernel->touch(asid, 5, false, 0), std::out_of_range);
}

TEST(GuestKernelTest, PressureTriggersReclaimIntoTmem) {
  Rig rig(128);
  const auto asid = rig.kernel->create_address_space();
  // 56 usable frames; touch 80 pages (written => dirty => frontswap puts).
  const Vpn base = rig.kernel->alloc_region(asid, 80);
  SimTime t = 0;
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
  }
  const GuestStats& s = rig.kernel->stats();
  EXPECT_GT(s.reclaim_runs, 0u);
  EXPECT_GT(s.swapouts_tmem, 0u);
  EXPECT_EQ(s.swapouts_disk, 0u);  // plenty of tmem
  EXPECT_EQ(rig.hyp->tmem_used(1), s.swapouts_tmem);
  EXPECT_GE(rig.kernel->free_frames(), 4u);
}

TEST(GuestKernelTest, SwapInFromTmemRestoresContent) {
  Rig rig(128);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 80);
  SimTime t = 0;
  std::vector<PageContent> tokens(80);
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
    tokens[v - base] = rig.kernel->page_content(asid, v);
  }
  // The early pages were evicted; re-reading them must come from tmem with
  // identical content.
  bool saw_tmem_swapin = false;
  for (Vpn v = base; v < base + 80; ++v) {
    const auto r = rig.kernel->touch(asid, v, false, t);
    t = r.end;
    if (r.outcome == TouchOutcome::kTmemSwapIn) saw_tmem_swapin = true;
    EXPECT_EQ(rig.kernel->page_content(asid, v), tokens[v - base]);
  }
  EXPECT_TRUE(saw_tmem_swapin);
  EXPECT_GT(rig.kernel->stats().swapins_tmem, 0u);
  EXPECT_EQ(rig.kernel->stats().swapins_disk, 0u);
}

TEST(GuestKernelTest, NoTmemFallsBackToDisk) {
  GuestConfig cfg;
  cfg.frontswap_enabled = false;
  Rig rig(128, cfg);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 80);
  SimTime t = 0;
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
  }
  EXPECT_EQ(rig.kernel->stats().swapouts_tmem, 0u);
  EXPECT_GT(rig.kernel->stats().swapouts_disk, 0u);
  EXPECT_GT(rig.disk->stats().writes, 0u);
  // Re-touch an evicted page: a blocking disk read.
  const auto r = rig.kernel->touch(asid, base, false, t);
  EXPECT_EQ(r.outcome, TouchOutcome::kDiskSwapIn);
  EXPECT_GT(r.end - t, rig.disk->model().access_latency / 2);
}

TEST(GuestKernelTest, FailedPutGoesToDiskAndIsCounted) {
  Rig rig(0);  // no tmem capacity at all: every put fails
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 80);
  SimTime t = 0;
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
  }
  const GuestStats& s = rig.kernel->stats();
  EXPECT_EQ(s.swapouts_tmem, 0u);
  EXPECT_GT(s.swapouts_disk, 0u);
  EXPECT_GT(rig.hyp->vm_data(1).cumul_puts_failed, 0u);
  // Disk-resident content survives the round trip.
  const auto r = rig.kernel->touch(asid, base, false, t);
  EXPECT_EQ(r.outcome, TouchOutcome::kDiskSwapIn);
}

TEST(GuestKernelTest, ExclusiveGetsReleaseTmemOnSwapIn) {
  GuestConfig cfg;
  cfg.frontswap_exclusive_gets = true;
  Rig rig(128, cfg);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 80);
  SimTime t = 0;
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
  }
  const PageCount held_before = rig.hyp->tmem_used(1);
  ASSERT_GT(held_before, 0u);
  // Touch every page: all swapped pages come back and are flushed from tmem.
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, false, t).end;
  }
  // Whatever was re-evicted during this pass is back in tmem, but each
  // swap-in released its page, so flushes must have happened.
  EXPECT_GT(rig.hyp->vm_data(1).cumul_flushes, 0u);
  EXPECT_EQ(rig.kernel->stats().swapouts_clean, 0u);
}

TEST(GuestKernelTest, NonExclusiveGetsPinTmemAndSkipRewrite) {
  GuestConfig cfg;
  cfg.frontswap_exclusive_gets = false;
  Rig rig(128, cfg);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 80);
  SimTime t = 0;
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
  }
  // Read pass: swapped pages come back but stay pinned in tmem; a second
  // eviction of those clean pages costs no put.
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, false, t).end;
  }
  EXPECT_GT(rig.kernel->stats().swapouts_clean, 0u);
  // Writing invalidates the pinned copy (flush) before re-dirtying.
  const std::uint64_t flushes_before = rig.hyp->vm_data(1).cumul_flushes;
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
  }
  EXPECT_GT(rig.hyp->vm_data(1).cumul_flushes, flushes_before);
}

TEST(GuestKernelTest, FreeRegionReleasesFramesSlotsAndTmem) {
  Rig rig(128);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 80);
  SimTime t = 0;
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
  }
  ASSERT_GT(rig.hyp->tmem_used(1), 0u);
  rig.kernel->free_region(asid, base, 80, t);
  EXPECT_EQ(rig.hyp->tmem_used(1), 0u);
  EXPECT_EQ(rig.kernel->swap().used_slots(), 0u);
  EXPECT_EQ(rig.kernel->free_frames(), rig.kernel->usable_frames());
  EXPECT_EQ(rig.kernel->resident_pages(asid), 0u);
}

TEST(GuestKernelTest, DestroyAddressSpaceReleasesEverything) {
  Rig rig(128);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 80);
  SimTime t = 0;
  for (Vpn v = base; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
  }
  rig.kernel->destroy_address_space(asid, t);
  EXPECT_EQ(rig.hyp->tmem_used(1), 0u);
  EXPECT_EQ(rig.kernel->free_frames(), rig.kernel->usable_frames());
  EXPECT_THROW(rig.kernel->touch(asid, base, false, t), std::out_of_range);
}

TEST(GuestKernelTest, MultipleAddressSpacesShareFrames) {
  Rig rig(128);
  const auto a = rig.kernel->create_address_space();
  const auto b = rig.kernel->create_address_space();
  const Vpn base_a = rig.kernel->alloc_region(a, 40);
  const Vpn base_b = rig.kernel->alloc_region(b, 40);
  SimTime t = 0;
  for (Vpn v = 0; v < 40; ++v) {
    t = rig.kernel->touch(a, base_a + v, true, t).end;
    t = rig.kernel->touch(b, base_b + v, true, t).end;
  }
  // 80 pages against 56 usable frames: both spaces were squeezed.
  EXPECT_EQ(rig.kernel->resident_pages(a) + rig.kernel->resident_pages(b),
            rig.kernel->usable_frames() - rig.kernel->free_frames());
  EXPECT_GT(rig.kernel->stats().pages_reclaimed, 0u);
}

TEST(GuestKernelTest, OomWhenSwapExhausted) {
  GuestConfig cfg;
  cfg.swap_slots = 8;  // tiny swap
  cfg.frontswap_enabled = false;
  Rig rig(0, cfg);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 200);
  SimTime t = 0;
  EXPECT_THROW(
      {
        for (Vpn v = base; v < base + 200; ++v) {
          t = rig.kernel->touch(asid, v, true, t).end;
        }
      },
      OutOfMemoryError);
  EXPECT_GT(rig.kernel->stats().oom_kills, 0u);
}

TEST(GuestKernelTest, SecondChanceKeepsHotPagesResident) {
  Rig rig(128);
  const auto asid = rig.kernel->create_address_space();
  const Vpn base = rig.kernel->alloc_region(asid, 80);
  SimTime t = 0;
  // Pin a small hot set by touching it between every batch of cold pages.
  const PageCount hot = 8;
  for (Vpn v = base + hot; v < base + 80; ++v) {
    t = rig.kernel->touch(asid, v, true, t).end;
    for (Vpn h = base; h < base + hot; ++h) {
      t = rig.kernel->touch(asid, h, false, t).end;
    }
  }
  // The hot set should still be resident: its referenced bits save it.
  for (Vpn h = base; h < base + hot; ++h) {
    EXPECT_EQ(rig.kernel->page_state(asid, h), mem::PageState::kResident)
        << "hot page " << (h - base) << " was evicted";
  }
}

}  // namespace
}  // namespace smartmem::guest
