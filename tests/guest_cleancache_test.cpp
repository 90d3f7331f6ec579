// The cleancache path: page-cache reads, eviction into the ephemeral pool,
// and victim-cache hits on re-read.
#include <gtest/gtest.h>

#include <memory>

#include "guest/guest_kernel.hpp"
#include "hyper/hypervisor.hpp"

namespace smartmem::guest {
namespace {

struct Rig {
  sim::Simulator sim;
  std::unique_ptr<hyper::Hypervisor> hyp;
  std::unique_ptr<sim::DiskDevice> disk;
  std::unique_ptr<GuestKernel> kernel;

  explicit Rig(PageCount tmem_pages, bool cleancache = true) {
    hyper::HypervisorConfig hcfg;
    hcfg.total_tmem_pages = tmem_pages;
    hyp = std::make_unique<hyper::Hypervisor>(sim, hcfg);
    hyp->register_vm(1);
    disk = std::make_unique<sim::DiskDevice>(sim, sim::DiskModel{});
    GuestConfig cfg;
    cfg.vm = 1;
    cfg.ram_pages = 64;
    cfg.kernel_reserved_pages = 8;
    cfg.swap_slots = 256;
    cfg.low_watermark = 4;
    cfg.high_watermark = 8;
    cfg.cleancache_enabled = cleancache;
    kernel = std::make_unique<GuestKernel>(sim, *hyp, *disk, cfg);
  }
};

TEST(CleancacheTest, FileReadValidation) {
  Rig rig(64);
  EXPECT_THROW(rig.kernel->file_read(1, 0, 0), std::out_of_range);
  rig.kernel->register_file(1, 10);
  EXPECT_THROW(rig.kernel->file_read(1, 10, 0), std::out_of_range);
}

TEST(CleancacheTest, FirstReadComesFromDisk) {
  Rig rig(64);
  rig.kernel->register_file(1, 10);
  const auto r = rig.kernel->file_read(1, 0, 0);
  EXPECT_EQ(r.outcome, FileReadOutcome::kDiskRead);
  EXPECT_EQ(rig.kernel->stats().file_disk_reads, 1u);
}

TEST(CleancacheTest, SecondReadHitsPageCache) {
  Rig rig(64);
  rig.kernel->register_file(1, 10);
  const SimTime t = rig.kernel->file_read(1, 0, 0).end;
  const auto r = rig.kernel->file_read(1, 0, t);
  EXPECT_EQ(r.outcome, FileReadOutcome::kPageCacheHit);
  EXPECT_EQ(r.end - t, rig.kernel->config().costs.page_cache_hit);
}

TEST(CleancacheTest, EvictedCleanPagesLandInCleancacheAndHitOnReRead) {
  Rig rig(256);
  // 100 file pages through 56 usable frames: early pages get evicted into
  // the ephemeral pool.
  rig.kernel->register_file(1, 100);
  SimTime t = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    t = rig.kernel->file_read(1, i, t).end;
  }
  EXPECT_GT(rig.kernel->stats().cleancache_puts, 0u);
  EXPECT_GT(rig.hyp->tmem_used(1), 0u);

  // Re-read the early pages: victim-cache hits instead of disk reads.
  const std::uint64_t disk_before = rig.kernel->stats().file_disk_reads;
  bool saw_hit = false;
  for (std::uint32_t i = 0; i < 20; ++i) {
    const auto r = rig.kernel->file_read(1, i, t);
    t = r.end;
    if (r.outcome == FileReadOutcome::kCleancacheHit) saw_hit = true;
  }
  EXPECT_TRUE(saw_hit);
  EXPECT_GT(rig.kernel->stats().cleancache_hits, 0u);
  EXPECT_EQ(rig.kernel->stats().file_disk_reads, disk_before);
}

TEST(CleancacheTest, CleancacheHitIsDestructive) {
  Rig rig(256);
  rig.kernel->register_file(1, 100);
  SimTime t = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    t = rig.kernel->file_read(1, i, t).end;
  }
  const PageCount held = rig.hyp->tmem_used(1);
  ASSERT_GT(held, 0u);
  // One victim-cache hit moves the page back into the page cache.
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto r = rig.kernel->file_read(1, i, t);
    t = r.end;
    if (r.outcome == FileReadOutcome::kCleancacheHit) break;
  }
  EXPECT_LT(rig.hyp->tmem_used(1), held);
}

TEST(CleancacheTest, DisabledCleancacheAlwaysReadsDisk) {
  Rig rig(256, /*cleancache=*/false);
  rig.kernel->register_file(1, 100);
  SimTime t = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    t = rig.kernel->file_read(1, i, t).end;
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    const auto r = rig.kernel->file_read(1, i, t);
    t = r.end;
    EXPECT_NE(r.outcome, FileReadOutcome::kCleancacheHit);
  }
  EXPECT_EQ(rig.hyp->tmem_used(1), 0u);
  EXPECT_EQ(rig.kernel->stats().cleancache_puts, 0u);
}

TEST(CleancacheTest, HypervisorMayDropEphemeralPagesUnderPressure) {
  // Tiny tmem: another VM's persistent puts displace our cleancache pages.
  Rig rig(16);
  rig.hyp->register_vm(2);
  rig.kernel->register_file(1, 100);
  SimTime t = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    t = rig.kernel->file_read(1, i, t).end;
  }
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(rig.hyp->put(2, tmem::PoolType::kPersistent, 0, i, i).ok());
  }
  EXPECT_EQ(rig.hyp->tmem_used(1), 0u);  // every ephemeral page sacrificed
  // Guest re-reads simply miss and fall back to disk: no data loss.
  const auto r = rig.kernel->file_read(1, 0, t);
  EXPECT_EQ(r.outcome, FileReadOutcome::kDiskRead);
}

}  // namespace
}  // namespace smartmem::guest
