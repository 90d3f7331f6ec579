// The guest-kernel memory-management model.
//
// This module plays the role of the Linux kernel inside each VM: it owns the
// guest's physical frames, runs the PFRA (active/inactive LRU) under memory
// pressure, and — exactly as described in Section II-B of the paper — routes
// evicted pages through transcendent memory:
//
//  * anonymous/dirty pages go to the swap path; with frontswap enabled the
//    kernel first issues a tmem put hypercall, and only on failure (E_TMEM)
//    writes the page to the virtual swap disk;
//  * clean file-backed pages are offered to cleancache (an ephemeral pool
//    the hypervisor is free to drop) and then discarded;
//  * a page fault on a swapped page issues a tmem get if the frontswap bitmap
//    says the slot lives in tmem (microseconds), otherwise a blocking disk
//    read (milliseconds).
//
// All methods are passive and synchronous: they take the caller's local
// virtual time `start` and return the absolute time at which the operation
// completes, so a vCPU can execute long batches without flooding the event
// queue. Asynchronous effects (swap-out writes) are enqueued on the disk at
// the correct simulated time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "guest/costs.hpp"
#include "hyper/hypervisor.hpp"
#include "mem/frame_allocator.hpp"
#include "mem/lru.hpp"
#include "mem/page_table.hpp"
#include "mem/swap.hpp"
#include "sim/disk.hpp"
#include "sim/simulator.hpp"

namespace smartmem::guest {

struct GuestConfig {
  VmId vm = kInvalidVm;

  /// Configured RAM of the VM (e.g. 1 GiB in Scenario 1).
  PageCount ram_pages = 0;

  /// Pages the kernel and resident services keep for themselves; the
  /// remainder is what applications can actually use before reclaim starts.
  /// Defaults to ~12% of RAM when left at 0 (representative of an idle
  /// Ubuntu 14.04 guest, the paper's guest OS).
  PageCount kernel_reserved_pages = 0;

  /// Size of the swap device (the paper's VMs have 2 GiB of swap).
  PageCount swap_slots = 0;

  /// Tmem modes. The paper's evaluation uses frontswap only; cleancache is
  /// implemented and tested but off in the scenario runs, matching Section VI
  /// ("we only make use of tmem on its frontswap mode").
  bool frontswap_enabled = true;
  bool cleancache_enabled = false;

  /// Frontswap get semantics. The paper's stack (Linux 3.19) does NOT use
  /// exclusive gets: a swap-in leaves the tmem copy valid until the page is
  /// re-dirtied, so clean pages can be evicted again with no put — at the
  /// price of tmem capacity staying pinned to whoever put first (this is
  /// what makes the default greedy allocation hoard, Figs 4a/6a). true
  /// selects destructive gets (frontswap_tmem_exclusive_gets): the
  /// hypervisor page is freed on swap-in and the slot released. Ablated in
  /// bench/ablation_exclusive_gets.
  bool frontswap_exclusive_gets = true;

  /// Reclaim watermarks: reclaim kicks in when free frames drop below `low`
  /// and runs until `high` are free. Defaults (when 0): low = 1/64 of usable
  /// RAM + 32, high = low + 1/128 of usable RAM.
  PageCount low_watermark = 0;
  PageCount high_watermark = 0;

  /// Swap read-ahead cluster: on a disk swap-in the kernel speculatively
  /// reads up to this many adjacent swap slots in one request (Linux
  /// page-cluster=3 reads 8 pages). Sequential thrashing then pays one disk
  /// access per cluster instead of per page. 1 disables. Read-ahead never
  /// triggers reclaim: it only uses frames above the low watermark.
  std::uint32_t swap_readahead = 8;

  /// Models zero pages in application data (calloc'd buffers, sparse
  /// structures): every Nth write stores an all-zero page instead of fresh
  /// data. 0 disables. Real heaps run at 15-30% zero pages; the dedup
  /// ablation uses 5 (20%). Zero pages are what the store's optional
  /// zero-page dedup (Xen tmem feature) exploits.
  std::uint32_t zero_write_period = 0;

  CostModel costs;
};

/// What happened on a page access (for stats and tests).
enum class TouchOutcome : std::uint8_t {
  kResidentHit,   // no fault
  kZeroFill,      // first touch of an untouched page
  kTmemSwapIn,    // fault served from frontswap
  kDiskSwapIn,    // fault served from the swap disk
};

struct TouchResult {
  SimTime end = 0;
  TouchOutcome outcome = TouchOutcome::kResidentHit;
};

enum class FileReadOutcome : std::uint8_t {
  kPageCacheHit,
  kCleancacheHit,
  kDiskRead,
};

struct FileReadResult {
  SimTime end = 0;
  FileReadOutcome outcome = FileReadOutcome::kPageCacheHit;
};

struct GuestStats {
  std::uint64_t touches = 0;
  std::uint64_t faults = 0;
  std::uint64_t zero_fills = 0;
  std::uint64_t swapins_tmem = 0;
  std::uint64_t swapins_disk = 0;      // demand disk reads (one per cluster)
  std::uint64_t swapins_readahead = 0; // extra pages brought in per cluster
  std::uint64_t swapouts_tmem = 0;   // successful frontswap puts
  std::uint64_t swapouts_disk = 0;   // failed puts -> disk writes
  std::uint64_t swapouts_clean = 0;  // swap-cache hits: dropped without I/O
  std::uint64_t reclaim_runs = 0;
  std::uint64_t pages_reclaimed = 0;
  std::uint64_t cleancache_puts = 0;
  std::uint64_t cleancache_hits = 0;
  std::uint64_t cleancache_misses = 0;
  std::uint64_t file_disk_reads = 0;
  std::uint64_t oom_kills = 0;
};

/// Thrown when neither RAM nor swap can absorb another page — the model's
/// analogue of the OOM killer. Scenarios are sized so this never fires; a
/// test provokes it deliberately.
class OutOfMemoryError : public std::runtime_error {
 public:
  explicit OutOfMemoryError(VmId vm)
      : std::runtime_error("guest OOM in VM " + std::to_string(vm)) {}
};

class GuestKernel {
 public:
  GuestKernel(sim::Simulator& sim, hyper::Hypervisor& hypervisor,
              sim::DiskDevice& disk, GuestConfig config);

  // ---- Process / address-space management --------------------------------

  /// Creates a process address space; returns its id.
  mem::AddressSpace::Id create_address_space();

  /// Tears down a process: frees frames, swap slots and tmem pages (issuing
  /// the flushes a real exit path would). Returns completion time.
  SimTime destroy_address_space(mem::AddressSpace::Id asid, SimTime start);

  /// Reserves a region of `pages` anonymous pages. Metadata-only.
  Vpn alloc_region(mem::AddressSpace::Id asid, PageCount pages);

  /// Releases a region, freeing frames/slots/tmem pages. Returns end time.
  SimTime free_region(mem::AddressSpace::Id asid, Vpn base, PageCount pages,
                      SimTime start);

  // ---- The hot path --------------------------------------------------------

  /// One page access at local time `start`. Write accesses dirty the page
  /// (updating its content token).
  TouchResult touch(mem::AddressSpace::Id asid, Vpn vpn, bool write,
                    SimTime start);

  // ---- File I/O (cleancache path) -----------------------------------------

  /// Declares a read-only dataset file of `pages` pages on the virtual disk.
  void register_file(std::uint64_t file_id, PageCount pages);

  /// Reads one page of a registered file through the page cache.
  FileReadResult file_read(std::uint64_t file_id, std::uint32_t index,
                           SimTime start);

  // ---- Introspection --------------------------------------------------------

  const GuestStats& stats() const { return stats_; }
  const GuestConfig& config() const { return config_; }
  PageCount free_frames() const { return frames_.free_count(); }
  PageCount usable_frames() const { return frames_.total(); }
  PageCount resident_pages(mem::AddressSpace::Id asid) const;
  PageContent page_content(mem::AddressSpace::Id asid, Vpn vpn) const;
  const mem::SwapSpace& swap() const { return swap_; }
  mem::PageState page_state(mem::AddressSpace::Id asid, Vpn vpn) const;

 private:
  // LRU keys encode both anonymous pages and file pages in one 64-bit id.
  static std::uint64_t anon_key(mem::AddressSpace::Id asid, Vpn vpn);
  static std::uint64_t file_key(std::uint64_t file_id, std::uint32_t index);
  static bool is_anon_key(std::uint64_t key);
  static mem::AddressSpace::Id key_asid(std::uint64_t key);
  static Vpn key_vpn(std::uint64_t key);
  static std::uint64_t key_file(std::uint64_t key);
  static std::uint32_t key_index(std::uint64_t key);

  /// Deterministic token for the contents of file page (file, index).
  static PageContent file_content(std::uint64_t file_id, std::uint32_t index);

  mem::AddressSpace& space(mem::AddressSpace::Id asid);
  const mem::AddressSpace& space(mem::AddressSpace::Id asid) const;

  /// Ensures at least one free frame, reclaiming if below the low watermark.
  /// Advances `t` by the reclaim work and returns the frame.
  Pfn obtain_frame(SimTime& t);

  /// Evicts pages until `free >= goal` or nothing is left to evict.
  void reclaim(SimTime& t, PageCount goal);

  /// Evicts one victim page chosen by the PFRA. Returns false if none.
  bool evict_one(SimTime& t);

  /// Swap-out of one anonymous page (frontswap put, else async disk write).
  void swap_out_anon(SimTime& t, mem::AddressSpace::Id asid, Vpn vpn);

  /// Releases a swap slot and its read-ahead reverse mapping.
  void release_slot(mem::SwapSlot slot);

  /// Collects up to `swap_readahead - 1` disk-resident neighbours of `slot`
  /// that can be brought in without reclaim; maps them resident. Returns
  /// how many were read (for sizing the clustered disk request).
  PageCount swap_readahead_cluster(mem::SwapSlot slot);

  /// Drops one clean file page (cleancache put first when enabled).
  void drop_file_page(SimTime& t, std::uint64_t file_id, std::uint32_t index);

  sim::Simulator& sim_;
  hyper::Hypervisor& hyp_;
  sim::DiskDevice& disk_;
  GuestConfig config_;

  mem::FrameAllocator frames_;
  mem::LruLists lru_;
  mem::SwapSpace swap_;

  std::vector<std::unique_ptr<mem::AddressSpace>> spaces_;

  struct FileInfo {
    PageCount pages = 0;
  };
  struct CachedFilePage {
    Pfn frame = kInvalidPfn;
    bool referenced = false;
  };
  std::unordered_map<std::uint64_t, FileInfo> files_;
  std::unordered_map<std::uint64_t, CachedFilePage> page_cache_;  // by file_key
  // Reverse map for disk-resident slots, driving swap read-ahead: the
  // anon_key of the page written to each slot, 0 when the slot holds none
  // (no anon_key is 0). Indexed by slot, grown to the highest disk slot.
  std::vector<std::uint64_t> disk_slot_owner_;

  std::uint64_t next_content_ = 1;
  GuestStats stats_;
};

}  // namespace smartmem::guest
