// Hypervisor support for SmarTmem (Section III-B of the paper).
//
// The hypervisor owns the node's tmem pool and performs three duties:
//  1. fine-grained allocation: every guest put/get/flush lands here
//     (Algorithm 1 — a put fails with E_TMEM once the VM has reached its
//     target or the node has no free tmem);
//  2. bookkeeping: the Table I statistics, kept per VM and per interval;
//  3. the sampling VIRQ: once per interval it snapshots memstats, hands the
//     snapshot to the privileged domain (the TKM registers a callback for
//     this) and resets the interval counters.
//
// Greedy — the Xen default the paper compares against — is simply the state
// where every target is kUnlimitedTarget and no MM ever updates it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "hyper/memstats.hpp"
#include "hyper/remote_tmem.hpp"
#include "hyper/vm_data.hpp"
#include "sim/simulator.hpp"
#include "tmem/store.hpp"

namespace smartmem::obs {
class Registry;
class TraceRecorder;
}

namespace smartmem::hyper {

/// How a VM's target is initialised when it registers.
enum class DefaultTargetMode : std::uint8_t {
  /// Xen default: no limit; VMs compete greedily.
  kUnlimited,
  /// SmarTmem managed mode: start from an equal share (re-divided across all
  /// registered VMs) so that Algorithm 4's relative increments are
  /// well-defined from the first interval.
  kEqualShare,
};

struct HypervisorConfig {
  PageCount total_tmem_pages = 0;
  /// Ex-Tmem extension: NVM pages backing overflow tmem capacity (0 = off).
  /// Reported totals (node_info.total_tmem, free_tmem) cover both tiers, so
  /// the management policies transparently govern the combined capacity.
  PageCount nvm_tmem_pages = 0;
  SimTime sample_interval = kSecond;
  DefaultTargetMode default_target_mode = DefaultTargetMode::kUnlimited;

  /// "The hypervisor can reclaim tmem pages from a VM very slowly": at each
  /// sampling tick, at most this many *ephemeral* pages are clawed back from
  /// each VM that sits above its target (0 = off). Persistent (frontswap)
  /// pages are never dropped — they hold the only copy of guest data.
  PageCount slow_reclaim_pages_per_tick = 512;

  /// Optional Xen tmem feature, exercised by the dedup ablation bench.
  bool zero_page_dedup = false;

  /// Compressed tier (src/tier): byte budget + compressibility model.
  /// capacity_bytes 0 disables (the default), keeping every figure
  /// byte-identical to the pre-tier system.
  tier::CompressedPoolConfig compressed;
  tmem::CompressedEvictMode compressed_evict =
      tmem::CompressedEvictMode::kDemote;

  /// Units the control plane reasons in (totals, free, per-VM usage,
  /// targets). kPages is the paper-faithful default; kBytes lets policies
  /// manage the *effective bytes* the compressed tier makes elastic.
  CapacityUnits capacity_units = CapacityUnits::kPages;
};

class Hypervisor {
 public:
  using VirqHandler = std::function<void(const MemStats&)>;

  Hypervisor(sim::Simulator& sim, HypervisorConfig config);

  /// The simulator this node's events (and its borrowed-page timers) run on.
  sim::Simulator& simulator() { return sim_; }

  // ---- VM lifecycle -------------------------------------------------------

  /// Registers a VM and creates its frontswap/cleancache pools.
  void register_vm(VmId vm);

  /// Flushes all the VM's pools and forgets it.
  void unregister_vm(VmId vm);

  bool vm_registered(VmId vm) const;
  std::uint32_t vm_count() const { return static_cast<std::uint32_t>(vms_.size()); }

  // ---- Tmem hypercalls (Algorithm 1) --------------------------------------
  // One hypercall per operation, as in Xen's tmem ABI: the pool type picks
  // the VM's pool — kPersistent is frontswap, kEphemeral is cleancache.

  /// Stores a page. On success the result names the tier it landed in
  /// (kRemote when a donor node took it); `fabric` carries any lending
  /// round trip, failed or not.
  TmemOp put(VmId vm, tmem::PoolType type, std::uint64_t object,
             std::uint32_t index, tmem::PagePayload payload);
  /// Fetches a page: local store first, then the lending broker. kNotFound
  /// on a miss.
  TmemOp get(VmId vm, tmem::PoolType type, std::uint64_t object,
             std::uint32_t index);
  OpStatus flush(VmId vm, tmem::PoolType type, std::uint64_t object,
                 std::uint32_t index);
  PageCount flush_object(VmId vm, tmem::PoolType type, std::uint64_t object);

  // ---- MM control path -----------------------------------------------------

  /// Applies a target vector from the Memory Manager (the custom hypercall
  /// the TKM issues on the MM's behalf). Unconditional: no sequence check.
  void set_targets(const MmOut& targets);

  /// The sequenced hypercall used by the comm downlink: applies the vector
  /// only if msg.seq is newer than the last applied sequence, so reordered
  /// or duplicated deliveries cannot regress targets. seq 0 always applies.
  void apply_targets(const TargetsMsg& msg);

  /// Registers the privileged-domain callback for the sampling VIRQ and
  /// starts the periodic sampler.
  void start_sampling(VirqHandler handler);
  void stop_sampling();

  // ---- Cluster control path (node quota + remote lending) -----------------

  /// Attaches the cluster lending broker's borrower port (nullptr = off,
  /// the single-node default). Must be set before traffic starts.
  void set_remote_tmem(RemoteTmem* remote) { remote_ = remote; }

  /// Sets the rack-level tmem quota for this node: a cap on how many pages
  /// the node may consume for its own guests (locally + borrowed), enforced
  /// by Algorithm 1 *before* the per-VM targets renormalize beneath it.
  /// kUnlimitedTarget (the default) disables the cap. A shrink below the
  /// current usage immediately releases ephemeral-typed borrowed pages; the
  /// rest drains through slow reclaim, one tick at a time.
  void set_node_quota(PageCount quota);

  /// Sequenced variant used by the cluster downlink, mirroring
  /// apply_targets: only a newer seq applies; seq 0 always applies.
  void apply_node_quota(std::uint64_t seq, PageCount quota);

  /// Re-inserts a recalled page into the VM's own pool, bypassing the
  /// Algorithm-1 counters (it is a migration, not a guest put). Only
  /// genuinely free frames are used — returns false when the node is full
  /// and the caller must keep the page remote or drop it (ephemeral).
  bool rehome_page(VmId vm, tmem::PoolType type, std::uint64_t object,
                   std::uint32_t index, tmem::PagePayload payload);

  /// Bulk frame reservation for the lending protocol: at an engine
  /// barrier the broker leases every currently-lendable frame so borrower
  /// shards can consume placement credit mid-window without touching this
  /// donor. Leased frames occupy real store capacity (a dedicated persistent
  /// pool under a pseudo VM) and count as lent. Stops at `want` frames or
  /// when lendable_pages() hits zero; returns the frames actually leased.
  PageCount host_lease(PageCount want);

  /// Returns up to `count` leased frames (LIFO) to the free pool. Capped at
  /// the number outstanding.
  void host_unlease(PageCount count);

  /// Builds a memstats snapshot *without* resetting interval counters
  /// (used by monitoring and tests; the periodic sampler resets).
  MemStats snapshot() const;

  // ---- Introspection --------------------------------------------------------

  /// Pages a VM holds, including pages borrowed on its behalf.
  PageCount tmem_used(VmId vm) const;
  PageCount target(VmId vm) const;
  /// Free/total across both tiers (DRAM + NVM when Ex-Tmem is enabled).
  PageCount free_tmem() const { return store_.combined_free_pages(); }
  PageCount total_tmem() const {
    return config_.total_tmem_pages + config_.nvm_tmem_pages;
  }

  // ---- Capacity-unit helpers (compressed tier / byte mode) ----------------
  // In kPages mode the compressed tier's byte budget counts as
  // capacity_bytes/kPageSize page-equivalents (a conservative floor: the
  // pool holds at least that many pages); in kBytes mode every quantity is
  // effective bytes. With compression off and kPages these reduce exactly
  // to the classic page accessors.

  /// Node capacity the control plane manages, in capacity_units.
  std::uint64_t capacity_total() const;
  /// Headroom under capacity_total(), in capacity_units.
  std::uint64_t capacity_free() const;
  /// A VM's footprint (incl. borrowed pages), in capacity_units.
  std::uint64_t vm_capacity_used(VmId vm) const;

  // ---- Cluster accounting ---------------------------------------------------

  PageCount node_quota() const { return node_quota_; }
  /// Physical pages consumed by this node's own guests (excludes frames
  /// lent to other nodes).
  PageCount own_used_pages() const;
  /// Own physical usage plus pages borrowed from donors — what the node
  /// quota caps.
  PageCount own_used_total() const;
  /// Frames currently leased to other nodes through host_lease().
  PageCount lent_pages() const { return lent_pages_; }
  /// Capacity the node may lend without eating into its own entitlement
  /// (min(quota, physical) pages are reserved for the node's own guests).
  PageCount lendable_pages() const;
  /// Capacity the node reports upward: quota-capped when managed, physical
  /// otherwise. With lending attached the quota may exceed physical.
  PageCount effective_total_tmem() const;
  std::uint64_t quota_updates() const { return quota_updates_; }
  std::uint64_t stale_quotas_dropped() const { return stale_quotas_dropped_; }
  std::uint64_t last_quota_seq() const { return last_quota_seq_; }
  std::uint64_t remote_puts() const { return remote_puts_; }
  std::uint64_t remote_gets() const { return remote_gets_; }
  const VmData& vm_data(VmId vm) const;
  const tmem::TmemStore& store() const { return store_; }
  const HypervisorConfig& config() const { return config_; }
  std::uint64_t samples_taken() const { return samples_taken_; }
  std::uint64_t target_updates() const { return target_updates_; }
  std::uint64_t stale_targets_dropped() const {
    return stale_targets_dropped_;
  }
  /// Delta TargetsMsgs dropped because their base_seq did not match the
  /// last applied seq (DESIGN §12 chain invariant).
  std::uint64_t target_chain_breaks() const { return target_chain_breaks_; }
  std::uint64_t last_target_seq() const { return last_target_seq_; }

  // ---- Observability --------------------------------------------------------

  /// Attaches a trace recorder: sampling VIRQs become interval spans on a
  /// "hyper" track, each VM gets a tmem-activity track with per-interval
  /// spans, and Algorithm 1 rejections / target updates / slow reclaim emit
  /// instants. nullptr detaches. The disabled path costs one pointer test.
  void set_trace(obs::TraceRecorder* trace);

  /// Registers hypervisor + store counters and per-VM target-vs-usage gap
  /// gauges into `reg`. Call after all VMs are registered (registration
  /// closes at the first snapshot).
  void register_metrics(obs::Registry& reg) const;

 private:
  VmData* find_vm(VmId vm);
  const VmData* find_vm(VmId vm) const;

  void sample_tick();
  void apply_equal_share_targets();
  void slow_reclaim();

  /// Creates (once) the per-VM trace track. Only called when trace_ is set.
  std::uint16_t vm_track(VmId vm);

  sim::Simulator& sim_;
  HypervisorConfig config_;
  tmem::TmemStore store_;
  // std::map keeps VM iteration order deterministic (by id), which matters
  // for reproducible equal-share rounding and reclaim order.
  std::map<VmId, VmData> vms_;
  VirqHandler virq_handler_;
  sim::EventHandle sampler_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t target_updates_ = 0;
  std::uint64_t last_target_seq_ = 0;
  std::uint64_t stale_targets_dropped_ = 0;
  std::uint64_t target_chain_breaks_ = 0;
  /// Seq gap between consecutively *applied* target messages (1 = every
  /// send arrived in order). Fed only while a registry is attached —
  /// apply_targets stays obs-free otherwise.
  Histogram target_seq_gap_hist_{0.5, 32.5, 32};
  mutable bool metrics_attached_ = false;
  obs::TraceRecorder* trace_ = nullptr;
  bool trace_tmem_ = false;  // trace_ set AND kCatTmem enabled
  std::uint16_t hyper_track_ = 0;
  std::map<VmId, std::uint16_t> vm_tracks_;
  SimTime last_sample_tick_ = 0;

  // ---- Cluster state -------------------------------------------------------
  PageCount node_quota_ = kUnlimitedTarget;
  RemoteTmem* remote_ = nullptr;
  PageCount lent_pages_ = 0;  // frames leased to other nodes
  std::uint64_t last_quota_seq_ = 0;
  std::uint64_t quota_updates_ = 0;
  std::uint64_t stale_quotas_dropped_ = 0;
  std::uint64_t remote_puts_ = 0;   // puts placed with a donor
  std::uint64_t remote_gets_ = 0;   // gets served by a donor
  std::uint64_t quota_evictions_ = 0;       // frames recycled at the quota wall
  PageCount node_pages_reclaimed_ = 0;      // via the node-quota reclaim pass
  // Bulk-lease reservation pool (lending): dummy persistent pages indexed
  // 0..lent_pages_-1, pushed/popped LIFO.
  std::optional<tmem::PoolId> lease_pool_;
};

/// Pseudo VM id owning the bulk-lease reservation pool: far outside any
/// guest id, so leased frames are invisible to memstats, targets and slow
/// reclaim.
inline constexpr VmId kLeaseVmId = 0x3fffffffu;

}  // namespace smartmem::hyper
