#include "guest/guest_kernel.hpp"

#include <cassert>
#include <stdexcept>

#include "common/logging.hpp"
#include "common/units.hpp"

namespace smartmem::guest {
namespace {

// Frontswap and cleancache are two callers of the same hypercalls; the pool
// type picks the VM's pool.
constexpr auto kFrontswap = tmem::PoolType::kPersistent;
constexpr auto kCleancache = tmem::PoolType::kEphemeral;

// The swap device is object 0 in the VM's frontswap pool; a slot number is
// the 32-bit page index, mirroring Linux's (swap type, offset) keys.
constexpr std::uint64_t kSwapObject = 0;

}  // namespace

GuestKernel::GuestKernel(sim::Simulator& sim, hyper::Hypervisor& hypervisor,
                         sim::DiskDevice& disk, GuestConfig config)
    : sim_(sim),
      hyp_(hypervisor),
      disk_(disk),
      config_([&] {
        GuestConfig c = config;
        if (c.kernel_reserved_pages == 0) {
          c.kernel_reserved_pages = c.ram_pages / 8;  // ~12% for kernel+services
        }
        const PageCount usable = c.ram_pages - c.kernel_reserved_pages;
        if (c.low_watermark == 0) c.low_watermark = usable / 64 + 32;
        if (c.high_watermark == 0) c.high_watermark = c.low_watermark + usable / 128;
        return c;
      }()),
      frames_(config_.ram_pages - config_.kernel_reserved_pages),
      swap_(config_.swap_slots) {
  if (config_.ram_pages <= config_.kernel_reserved_pages) {
    throw std::invalid_argument("GuestKernel: reserved pages exceed RAM");
  }
  if (!hyp_.vm_registered(config_.vm)) {
    throw std::invalid_argument("GuestKernel: VM not registered with hypervisor");
  }
}

// ---- LRU key encoding -------------------------------------------------------
// bit 63: 1 = anonymous page, 0 = file page.
// anon:  [63]=1 | [62..40]=asid | [39..0]=vpn
// file:  [63]=0 | [62..32]=file_id | [31..0]=index

std::uint64_t GuestKernel::anon_key(mem::AddressSpace::Id asid, Vpn vpn) {
  assert(vpn < (1ULL << 40));
  assert(asid < (1u << 22));
  return (1ULL << 63) | (static_cast<std::uint64_t>(asid) << 40) | vpn;
}

std::uint64_t GuestKernel::file_key(std::uint64_t file_id, std::uint32_t index) {
  assert(file_id < (1ULL << 31));
  return (file_id << 32) | index;
}

bool GuestKernel::is_anon_key(std::uint64_t key) { return (key >> 63) != 0; }

mem::AddressSpace::Id GuestKernel::key_asid(std::uint64_t key) {
  return static_cast<mem::AddressSpace::Id>((key >> 40) & 0x3fffff);
}

Vpn GuestKernel::key_vpn(std::uint64_t key) { return key & ((1ULL << 40) - 1); }

std::uint64_t GuestKernel::key_file(std::uint64_t key) {
  return (key >> 32) & 0x7fffffff;
}

std::uint32_t GuestKernel::key_index(std::uint64_t key) {
  return static_cast<std::uint32_t>(key & 0xffffffff);
}

PageContent GuestKernel::file_content(std::uint64_t file_id,
                                      std::uint32_t index) {
  // Deterministic token so cleancache round-trips are verifiable.
  std::uint64_t x = (file_id << 32) ^ index ^ 0xabcdef0123456789ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 31);
}

// ---- Address spaces --------------------------------------------------------

mem::AddressSpace::Id GuestKernel::create_address_space() {
  const auto id = static_cast<mem::AddressSpace::Id>(spaces_.size());
  spaces_.push_back(std::make_unique<mem::AddressSpace>(id));
  return id;
}

mem::AddressSpace& GuestKernel::space(mem::AddressSpace::Id asid) {
  if (asid >= spaces_.size() || !spaces_[asid]) {
    throw std::out_of_range("GuestKernel: bad address space id");
  }
  return *spaces_[asid];
}

const mem::AddressSpace& GuestKernel::space(mem::AddressSpace::Id asid) const {
  if (asid >= spaces_.size() || !spaces_[asid]) {
    throw std::out_of_range("GuestKernel: bad address space id");
  }
  return *spaces_[asid];
}

Vpn GuestKernel::alloc_region(mem::AddressSpace::Id asid, PageCount pages) {
  return space(asid).map_region(pages);
}

SimTime GuestKernel::free_region(mem::AddressSpace::Id asid, Vpn base,
                                 PageCount pages, SimTime start) {
  mem::AddressSpace& as = space(asid);
  SimTime t = start;
  for (PageCount i = 0; i < pages; ++i) {
    mem::PageTableEntry& pte = as.entry(base + i);
    switch (pte.state) {
      case mem::PageState::kResident:
        lru_.remove(pte.frame);
        frames_.free(pte.frame);
        as.note_resident_delta(-1);
        pte.frame = kInvalidPfn;
        if (pte.clean_in_swap) {
          if (swap_.in_frontswap(pte.slot)) {
            hyp_.flush(config_.vm, kFrontswap, kSwapObject, pte.slot);
            t += config_.costs.tmem_flush;
          }
          release_slot(pte.slot);
          pte.clean_in_swap = false;
        }
        t += config_.costs.reclaim_per_page;
        break;
      case mem::PageState::kSwapped:
        if (swap_.in_frontswap(pte.slot)) {
          // The exit path invalidates frontswap pages so the hypervisor can
          // reuse them (the explicit flush of Section II-B).
          hyp_.flush(config_.vm, kFrontswap, kSwapObject, pte.slot);
          t += config_.costs.tmem_flush;
        }
        release_slot(pte.slot);
        pte.slot = mem::kInvalidSlot;
        break;
      case mem::PageState::kUntouched:
      case mem::PageState::kUnmapped:
        break;
    }
    pte.state = mem::PageState::kUntouched;  // normalized for unmap assert
    pte.slot = mem::kInvalidSlot;
  }
  as.unmap_region(base, pages);
  return t;
}

SimTime GuestKernel::destroy_address_space(mem::AddressSpace::Id asid,
                                           SimTime start) {
  mem::AddressSpace& as = space(asid);
  const SimTime end = free_region(asid, 0, as.reserved_pages(), start);
  spaces_[asid].reset();
  return end;
}

// ---- Reclaim ---------------------------------------------------------------

Pfn GuestKernel::obtain_frame(SimTime& t) {
  if (frames_.free_count() < config_.low_watermark) {
    reclaim(t, config_.high_watermark);
  }
  auto frame = frames_.allocate();
  if (!frame) {
    reclaim(t, 1);
    frame = frames_.allocate();
    if (!frame) {
      ++stats_.oom_kills;
      throw OutOfMemoryError(config_.vm);
    }
  }
  return *frame;
}

void GuestKernel::reclaim(SimTime& t, PageCount goal) {
  ++stats_.reclaim_runs;
  while (frames_.free_count() < goal) {
    if (!evict_one(t)) break;
  }
}

bool GuestKernel::evict_one(SimTime& t) {
  // CLOCK-style second chance: a victim whose referenced bit is set gets the
  // bit cleared and another round instead of eviction. Bounded by 2x the
  // tracked population, after which every bit has been cleared once.
  std::size_t scans = 2 * lru_.size() + 1;
  while (scans-- > 0) {
    const auto victim = lru_.pop_victim();
    if (!victim) return false;
    t += config_.costs.reclaim_per_page;
    const std::uint64_t key = victim->key;
    if (is_anon_key(key)) {
      const auto asid = key_asid(key);
      const Vpn vpn = key_vpn(key);
      mem::PageTableEntry& pte = space(asid).entry(vpn);
      assert(pte.state == mem::PageState::kResident &&
             pte.frame == victim->frame);
      if (pte.referenced) {
        pte.referenced = false;
        lru_.insert(victim->frame, key);  // second chance
        continue;
      }
      swap_out_anon(t, asid, vpn);
    } else {
      auto it = page_cache_.find(key);
      assert(it != page_cache_.end() && it->second.frame == victim->frame);
      if (it->second.referenced) {
        it->second.referenced = false;
        lru_.insert(victim->frame, key);
        continue;
      }
      drop_file_page(t, key_file(key), key_index(key));
    }
    ++stats_.pages_reclaimed;
    return true;
  }
  return false;
}

void GuestKernel::swap_out_anon(SimTime& t, mem::AddressSpace::Id asid,
                                Vpn vpn) {
  mem::AddressSpace& as = space(asid);
  mem::PageTableEntry& pte = as.entry(vpn);

  // Swap-cache fast path: the slot still holds an identical copy (the page
  // was swapped in but never re-dirtied), so eviction is free — drop the
  // frame and point back at the existing slot.
  if (pte.clean_in_swap) {
    assert(pte.slot != mem::kInvalidSlot);
    frames_.free(pte.frame);
    as.note_resident_delta(-1);
    pte.state = mem::PageState::kSwapped;
    pte.frame = kInvalidPfn;
    pte.clean_in_swap = false;
    ++stats_.swapouts_clean;
    return;
  }

  const auto slot = swap_.allocate();
  if (!slot) {
    ++stats_.oom_kills;
    throw OutOfMemoryError(config_.vm);  // swap device exhausted
  }

  bool in_tmem = false;
  if (config_.frontswap_enabled) {
    // "the kernel traps the fault and passes it on to a tmem kernel module
    //  that initiates the tmem put hypercall" (Section II-B).
    const hyper::TmemOp op =
        hyp_.put(config_.vm, kFrontswap, kSwapObject, *slot, pte.content);
    t += config_.costs.tmem_op(op, /*put=*/true);
    if (op.ok()) {
      in_tmem = true;
      ++stats_.swapouts_tmem;
    }
  }
  if (!in_tmem) {
    // Failed (or disabled) frontswap: write-behind to the virtual swap disk.
    // The write occupies the disk queue from `t` but does not block reclaim.
    t += config_.costs.disk_submit;
    swap_.store_disk_content(*slot, pte.content);
    if (*slot >= disk_slot_owner_.size()) disk_slot_owner_.resize(*slot + 1);
    disk_slot_owner_[*slot] = anon_key(asid, vpn);
    disk_.write(kPageSize, t);
    ++stats_.swapouts_disk;
  }
  swap_.set_in_frontswap(*slot, in_tmem);

  frames_.free(pte.frame);
  as.note_resident_delta(-1);
  pte.state = mem::PageState::kSwapped;
  pte.frame = kInvalidPfn;
  pte.slot = *slot;
}

void GuestKernel::release_slot(mem::SwapSlot slot) {
  if (slot < disk_slot_owner_.size()) disk_slot_owner_[slot] = 0;
  swap_.free(slot);
}

PageCount GuestKernel::swap_readahead_cluster(mem::SwapSlot slot) {
  if (config_.swap_readahead <= 1) return 0;
  PageCount brought = 0;
  for (std::uint32_t off = 1; off < config_.swap_readahead; ++off) {
    // Speculation must not steal frames the allocator is about to need.
    if (frames_.free_count() <= config_.low_watermark) break;
    const mem::SwapSlot neighbour = slot + off;
    if (neighbour >= disk_slot_owner_.size()) break;
    const std::uint64_t owner = disk_slot_owner_[neighbour];
    if (owner == 0) continue;
    const auto o_asid = key_asid(owner);
    const Vpn o_vpn = key_vpn(owner);
    mem::PageTableEntry& pte = space(o_asid).entry(o_vpn);
    if (pte.state != mem::PageState::kSwapped || pte.slot != neighbour) {
      continue;  // stale mapping (page already resident via swap cache)
    }
    const auto frame = frames_.allocate();
    if (!frame) break;
    assert(swap_.in_use(neighbour) && !swap_.in_frontswap(neighbour));
    assert(swap_.load_disk_content(neighbour) == pte.content);
    pte.state = mem::PageState::kResident;
    pte.frame = *frame;
    pte.clean_in_swap = true;  // the slot keeps its copy
    pte.referenced = false;    // speculative: not actually touched yet
    lru_.insert(*frame, owner);
    space(o_asid).note_resident_delta(+1);
    ++brought;
  }
  stats_.swapins_readahead += brought;
  return brought;
}

void GuestKernel::drop_file_page(SimTime& t, std::uint64_t file_id,
                                 std::uint32_t index) {
  const std::uint64_t key = file_key(file_id, index);
  auto it = page_cache_.find(key);
  assert(it != page_cache_.end());
  if (config_.cleancache_enabled) {
    // Clean page evicted by the PFRA: offer it to the ephemeral pool. The
    // put may fail (target reached / no capacity); the page is dropped
    // either way — it can be re-read from disk.
    const hyper::TmemOp op = hyp_.put(config_.vm, kCleancache, file_id, index,
                                      file_content(file_id, index));
    t += config_.costs.tmem_op(op, /*put=*/true);
    ++stats_.cleancache_puts;
  }
  frames_.free(it->second.frame);
  page_cache_.erase(it);
}

// ---- Hot path ----------------------------------------------------------------

TouchResult GuestKernel::touch(mem::AddressSpace::Id asid, Vpn vpn, bool write,
                               SimTime start) {
  ++stats_.touches;
  mem::AddressSpace& as = space(asid);
  mem::PageTableEntry& pte = as.entry(vpn);
  SimTime t = start;
  TouchOutcome outcome = TouchOutcome::kResidentHit;

  switch (pte.state) {
    case mem::PageState::kResident:
      break;  // hardware sets the accessed bit below; no kernel involvement

    case mem::PageState::kUntouched: {
      ++stats_.faults;
      ++stats_.zero_fills;
      t += config_.costs.fault_overhead + config_.costs.zero_fill;
      const Pfn frame = obtain_frame(t);
      pte.state = mem::PageState::kResident;
      pte.frame = frame;
      pte.content = 0;  // fresh zero page
      lru_.insert(frame, anon_key(asid, vpn));
      as.note_resident_delta(+1);
      outcome = TouchOutcome::kZeroFill;
      break;
    }

    case mem::PageState::kSwapped: {
      ++stats_.faults;
      t += config_.costs.fault_overhead;
      const Pfn frame = obtain_frame(t);
      const mem::SwapSlot slot = pte.slot;
      if (swap_.in_frontswap(slot)) {
        // A borrowed get's fabric time is 0 on a borrower-cache hit and the
        // accumulated timeouts when the fabric gave up and the broker
        // rescued the page.
        const hyper::TmemOp op =
            hyp_.get(config_.vm, kFrontswap, kSwapObject, slot);
        t += config_.costs.tmem_op(op, /*put=*/false);
        assert(op.ok() &&
               "frontswap bitmap says tmem but the hypervisor lost the page");
        assert(op.payload == pte.content && "tmem returned wrong page data");
        ++stats_.swapins_tmem;
        outcome = TouchOutcome::kTmemSwapIn;
        if (config_.frontswap_exclusive_gets) {
          // Xen tmem: the persistent get freed the hypervisor page; release
          // the swap slot too.
          hyp_.flush(config_.vm, kFrontswap, kSwapObject, slot);
          t += config_.costs.tmem_flush;
          release_slot(slot);
          pte.slot = mem::kInvalidSlot;
          pte.clean_in_swap = false;
        } else {
          // Swap-cache mode: the tmem copy stays valid until re-dirty.
          pte.clean_in_swap = true;
        }
      } else {
        const auto content = swap_.load_disk_content(slot);
        assert(content.has_value() && *content == pte.content &&
               "swap disk returned wrong page data");
        (void)content;
        // Read-ahead: pull adjacent disk slots into RAM with one clustered
        // request, amortizing the access latency across the cluster.
        const PageCount extra = swap_readahead_cluster(slot);
        t = disk_.read(kPageSize * (1 + extra), t);  // blocking
        ++stats_.swapins_disk;
        outcome = TouchOutcome::kDiskSwapIn;
        // Disk-backed slots always stay in the swap cache until re-dirty.
        pte.clean_in_swap = true;
      }
      pte.state = mem::PageState::kResident;
      pte.frame = frame;
      lru_.insert(frame, anon_key(asid, vpn));
      as.note_resident_delta(+1);
      break;
    }

    case mem::PageState::kUnmapped:
      throw std::logic_error("GuestKernel::touch: access to unmapped page");
  }

  pte.referenced = true;
  if (write) {
    if (pte.clean_in_swap) {
      // Re-dirtying drops the page from the swap cache: the stale copy is
      // invalidated (the explicit tmem flush of Section II-B) and the swap
      // slot is released.
      if (swap_.in_frontswap(pte.slot)) {
        hyp_.flush(config_.vm, kFrontswap, kSwapObject, pte.slot);
        t += config_.costs.tmem_flush;
      }
      release_slot(pte.slot);
      pte.slot = mem::kInvalidSlot;
      pte.clean_in_swap = false;
    }
    const std::uint64_t serial = next_content_++;
    const bool zero_page = config_.zero_write_period != 0 &&
                           serial % config_.zero_write_period == 0;
    pte.content =
        zero_page ? 0 : (static_cast<std::uint64_t>(config_.vm) << 48) ^ serial;
  }
  return TouchResult{t, outcome};
}

// ---- File I/O (cleancache) ----------------------------------------------------

void GuestKernel::register_file(std::uint64_t file_id, PageCount pages) {
  files_[file_id] = FileInfo{pages};
}

FileReadResult GuestKernel::file_read(std::uint64_t file_id,
                                      std::uint32_t index, SimTime start) {
  auto fit = files_.find(file_id);
  if (fit == files_.end() || index >= fit->second.pages) {
    throw std::out_of_range("GuestKernel::file_read: bad file/index");
  }
  SimTime t = start;
  const std::uint64_t key = file_key(file_id, index);

  if (auto it = page_cache_.find(key); it != page_cache_.end()) {
    it->second.referenced = true;
    lru_.touch(it->second.frame);
    t += config_.costs.page_cache_hit;
    return FileReadResult{t, FileReadOutcome::kPageCacheHit};
  }

  const Pfn frame = obtain_frame(t);
  FileReadOutcome outcome;
  if (config_.cleancache_enabled) {
    // "Linux cleancache is a victim cache for clean pages evicted by the
    //  PFRA": check it before going to disk.
    // A miss pays the cheap failed round trip before the disk read.
    const hyper::TmemOp op = hyp_.get(config_.vm, kCleancache, file_id, index);
    t += config_.costs.tmem_op(op, /*put=*/false);
    if (op.ok()) {
      assert(op.payload == file_content(file_id, index) &&
             "cleancache returned wrong page data");
      ++stats_.cleancache_hits;
      outcome = FileReadOutcome::kCleancacheHit;
    } else {
      ++stats_.cleancache_misses;
      t = disk_.read(kPageSize, t);
      ++stats_.file_disk_reads;
      outcome = FileReadOutcome::kDiskRead;
    }
  } else {
    t = disk_.read(kPageSize, t);
    ++stats_.file_disk_reads;
    outcome = FileReadOutcome::kDiskRead;
  }

  page_cache_.emplace(key, CachedFilePage{frame, /*referenced=*/true});
  lru_.insert(frame, key);
  return FileReadResult{t, outcome};
}

// ---- Introspection -------------------------------------------------------------

PageCount GuestKernel::resident_pages(mem::AddressSpace::Id asid) const {
  return space(asid).resident_pages();
}

PageContent GuestKernel::page_content(mem::AddressSpace::Id asid,
                                      Vpn vpn) const {
  return space(asid).entry(vpn).content;
}

mem::PageState GuestKernel::page_state(mem::AddressSpace::Id asid,
                                       Vpn vpn) const {
  return space(asid).entry(vpn).state;
}

}  // namespace smartmem::guest
