// Cost model for guest kernel memory-management operations.
//
// The absolute values are calibrated to typical magnitudes reported for Xen
// tmem and paravirtual guests: a tmem hypercall costs a VM exit plus a 4 KiB
// copy (single-digit microseconds), while a swap to the virtual disk costs
// milliseconds. The performance *shapes* the paper reports depend only on
// this µs-vs-ms gap; the ablation bench `ablation_latency_gap` sweeps it.
#pragma once

#include "common/types.hpp"

namespace smartmem::guest {

struct CostModel {
  /// Trap + page-fault handler entry/exit.
  SimTime fault_overhead = 2 * kMicrosecond;

  /// Zero-filling a fresh anonymous page.
  SimTime zero_fill = 1 * kMicrosecond;

  /// tmem put hypercall: exit, key lookup, 4 KiB copy into the hypervisor.
  SimTime tmem_put = 6 * kMicrosecond;

  /// tmem get hypercall: exit, lookup, 4 KiB copy back into the guest.
  SimTime tmem_get = 6 * kMicrosecond;

  /// tmem flush hypercall: exit + lookup, no copy.
  SimTime tmem_flush = 2 * kMicrosecond;

  /// Ex-Tmem NVM tier: a put that lands in NVM pays a slower (PCM-class)
  /// write, a get served from NVM a slower read — still 5-10x faster than
  /// the virtual disk.
  SimTime tmem_put_nvm = 18 * kMicrosecond;
  SimTime tmem_get_nvm = 14 * kMicrosecond;

  /// Compressed tier (zswap-style, src/tier): the hypercall plus LZ4-class
  /// compression of 4 KiB on put (~1-2 GB/s) and the cheaper decompression
  /// on get. Sits between DRAM and NVM in the latency chain; the
  /// compression ablation sweeps the put cost to find where compressing
  /// stops paying for itself.
  SimTime tmem_put_compressed = 9 * kMicrosecond;
  SimTime tmem_get_compressed = 8 * kMicrosecond;

  /// A failed put still pays the hypercall round-trip (exit + checks).
  SimTime tmem_put_failed = 3 * kMicrosecond;

  /// PFRA work per scanned/evicted page (list manipulation, pte updates).
  SimTime reclaim_per_page = 400;  // 0.4 us

  /// CPU cost of submitting an async swap-out write to the block layer.
  SimTime disk_submit = 1 * kMicrosecond;

  /// Page-cache hit (lookup + mapping).
  SimTime page_cache_hit = 300;  // 0.3 us
};

}  // namespace smartmem::guest
