#include "hyper/hypervisor.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "common/logging.hpp"
#include "common/strfmt.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace smartmem::hyper {

namespace {
constexpr auto kLogComp = log::Component::kHyper;
}

Hypervisor::Hypervisor(sim::Simulator& sim, HypervisorConfig config)
    : sim_(sim),
      config_(config),
      store_(tmem::StoreConfig{config.total_tmem_pages, config.nvm_tmem_pages,
                               config.zero_page_dedup, config.compressed,
                               config.compressed_evict}) {}

void Hypervisor::register_vm(VmId vm) {
  if (vms_.contains(vm)) {
    throw std::invalid_argument("Hypervisor: VM already registered");
  }
  VmData data;
  data.vm_id = vm;
  data.frontswap_pool = store_.create_pool(vm, tmem::PoolType::kPersistent);
  data.cleancache_pool = store_.create_pool(vm, tmem::PoolType::kEphemeral);
  vms_.emplace(vm, data);
  if (config_.default_target_mode == DefaultTargetMode::kEqualShare) {
    apply_equal_share_targets();
  }
  if (trace_ != nullptr) vm_track(vm);
  log::debug(kLogComp, "registered VM %u (%u VMs total)", vm, vm_count());
}

bool Hypervisor::vm_registered(VmId vm) const { return vms_.contains(vm); }

VmData* Hypervisor::find_vm(VmId vm) {
  auto it = vms_.find(vm);
  return it == vms_.end() ? nullptr : &it->second;
}

const VmData* Hypervisor::find_vm(VmId vm) const {
  auto it = vms_.find(vm);
  return it == vms_.end() ? nullptr : &it->second;
}

void Hypervisor::apply_equal_share_targets() {
  if (vms_.empty()) return;
  // Physical capacity in control-plane units: the compressed tier's byte
  // budget joins the divisible pie (as page-equivalents in kPages mode).
  const std::uint64_t comp = store_.compressed_enabled()
                                 ? store_.compressed_pool().capacity_bytes()
                                 : 0;
  const std::uint64_t total =
      config_.capacity_units == CapacityUnits::kBytes
          ? total_tmem() * kPageSize + comp
          : total_tmem() + comp / kPageSize;
  const PageCount share = total / vms_.size();
  for (auto& [id, data] : vms_) data.mm_target = share;
}

// Algorithm 1, PUT branch. The paper's pseudo-code checks, in order:
//   (a) tmem_used >= mm_target          -> E_TMEM
//   (b) node_info.free_tmem == 0        -> E_TMEM
//   (c) otherwise allocate, copy, count -> S_TMEM
// One refinement: check (b) treats ephemeral (cleancache) pages as
// reclaimable, as Xen does — a persistent put may evict ephemeral victims, so
// the node only counts as "full" when free + evictable are both zero.
//
// The cluster extension threads two more decisions through the same path
// without perturbing the single-node one (node_quota_ unlimited, remote_
// null short-circuits both):
//   * node quota: between (a) and (b), a managed node rejects — or recycles
//     an own ephemeral frame for — any put that would push own+borrowed
//     usage past the rack-assigned quota. With quota == physical capacity
//     this is exactly check (b).
//   * remote lending: a key the broker already holds is replaced in place
//     remotely; a physically-full node with quota headroom places the page
//     with a donor instead of failing.
TmemOp Hypervisor::put(VmId vm, tmem::PoolType type, std::uint64_t object,
                       std::uint32_t index, tmem::PagePayload payload) {
  VmData* data = find_vm(vm);
  if (data == nullptr) return {OpStatus::kBadVm};

  ++data->puts_total;          // line 15: counted whether or not it succeeds
  ++data->cumul_puts_total;

  const std::uint64_t used = vm_capacity_used(vm);
  if (used >= data->mm_target) {  // line 5
    ++data->cumul_puts_failed;
    if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
      trace_->instant(obs::kCatHyper, vm_track(vm), "put_reject:target",
                      sim_.now(),
                      {{"used", static_cast<double>(used)},
                       {"target", static_cast<double>(data->mm_target)}});
    }
    return {OpStatus::kNoCapacity};
  }

  // Replacement put of a key the broker holds: route it back to the same
  // donor so the key never exists twice. Consumes no new capacity anywhere.
  const bool remote_owned =
      remote_ != nullptr && remote_->owns(vm, type, object, index);
  const tmem::TmemKey key{data->pool(type), object, index};

  if (node_quota_ != kUnlimitedTarget && !remote_owned &&
      !store_.contains(key) && own_used_total() >= node_quota_) {
    // At the quota wall. A replacement would consume no frame (handled by
    // the contains() guard); a fresh page must recycle an own ephemeral
    // frame to keep the footprint flat, or fail. With quota == physical
    // capacity this degenerates to exactly check (b) below.
    if (store_.ephemeral_pages() == 0) {
      ++data->cumul_puts_failed;
      if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
        trace_->instant(obs::kCatHyper, vm_track(vm), "put_reject:node_quota",
                        sim_.now(),
                        {{"used", static_cast<double>(used)},
                         {"quota", static_cast<double>(node_quota_)}});
      }
      return {OpStatus::kNoCapacity};
    }
    if (store_.combined_free_pages() > 0) {
      // Free frames exist but belong to the rack, not this node: recycle an
      // own ephemeral frame so the store put below does not grow own usage.
      store_.evict_oldest_ephemeral();
      ++quota_evictions_;
    }
    // else: the store put below evicts an ephemeral victim itself.
  }

  if (remote_owned) {
    const TmemOp op = remote_->remote_put(vm, type, object, index, payload);
    if (op.ok()) {
      ++remote_puts_;
      ++data->puts_succ;
      ++data->cumul_puts_succ;
    } else {
      ++data->cumul_puts_failed;
    }
    return op;
  }

  if (store_.combined_free_pages() == 0 && !store_.compressed_fits(key) &&
      store_.ephemeral_pages() == 0) {  // line 7
    // Physically full. A node whose quota still has headroom (the global
    // policy granted it more than it owns) may borrow a donor's frame at
    // inter-node latency instead of failing the put.
    TmemOp op{OpStatus::kNoCapacity};
    if (remote_ != nullptr &&
        (node_quota_ == kUnlimitedTarget || own_used_total() < node_quota_)) {
      op = remote_->remote_put(vm, type, object, index, payload);
      if (op.ok()) {
        ++remote_puts_;
        ++data->puts_succ;
        ++data->cumul_puts_succ;
        if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
          trace_->instant(obs::kCatHyper, vm_track(vm), "put_remote",
                          sim_.now(), {{"used", static_cast<double>(used)}});
        }
        return op;
      }
    }
    ++data->cumul_puts_failed;
    if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
      trace_->instant(obs::kCatHyper, vm_track(vm), "put_reject:node_full",
                      sim_.now(), {{"used", static_cast<double>(used)}});
    }
    return op;
  }

  tmem::Tier tier = tmem::Tier::kDram;
  const tmem::PutResult result = store_.put(key, payload, &tier);  // line 10
  if (result == tmem::PutResult::kNoMemory) {
    ++data->cumul_puts_failed;
    if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
      trace_->instant(obs::kCatHyper, vm_track(vm), "put_reject:store_full",
                      sim_.now(), {{"used", static_cast<double>(used)}});
    }
    return {OpStatus::kNoCapacity};
  }

  ++data->puts_succ;           // line 12
  ++data->cumul_puts_succ;
  return {OpStatus::kSuccess, tier};  // line 13
}

TmemOp Hypervisor::get(VmId vm, tmem::PoolType type, std::uint64_t object,
                       std::uint32_t index) {
  VmData* data = find_vm(vm);
  if (data == nullptr) return {OpStatus::kBadVm};
  ++data->gets_total;
  ++data->cumul_gets_total;
  TmemOp op;
  const tmem::TmemKey key{data->pool(type), object, index};
  if (const auto page = store_.get(key, &op.tier)) {
    op.status = OpStatus::kSuccess;
    op.payload = *page;
  } else if (remote_ != nullptr) {
    op = remote_->remote_get(vm, type, object, index);
    if (op.ok()) ++remote_gets_;
  }
  if (op.ok()) {
    ++data->gets_hit;
    ++data->cumul_gets_hit;
  }
  return op;
}

// Algorithm 1, FLUSH branch (lines 16-19): deallocate and decrement usage.
// The decrement happens implicitly through the store's accounting.
OpStatus Hypervisor::flush(VmId vm, tmem::PoolType type, std::uint64_t object,
                           std::uint32_t index) {
  VmData* data = find_vm(vm);
  if (data == nullptr) return OpStatus::kBadVm;
  ++data->flushes;
  ++data->cumul_flushes;
  bool existed =
      store_.flush_page(tmem::TmemKey{data->pool(type), object, index});
  if (!existed && remote_ != nullptr) {
    existed = remote_->remote_flush(vm, type, object, index);
  }
  return existed ? OpStatus::kSuccess : OpStatus::kNotFound;
}

void Hypervisor::set_targets(const MmOut& targets) {
  for (const MmTarget& t : targets) {
    VmData* data = find_vm(t.vm_id);
    if (data == nullptr) {
      log::warn(kLogComp, "target for unknown VM %u ignored", t.vm_id);
      continue;
    }
    if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
      trace_->instant(obs::kCatHyper, vm_track(t.vm_id), "target_applied",
                      sim_.now(),
                      {{"before", static_cast<double>(data->mm_target)},
                       {"after", static_cast<double>(t.mm_target)}});
    }
    data->mm_target = t.mm_target;
    ++data->targets_applied;
  }
  ++target_updates_;
}

void Hypervisor::apply_targets(const TargetsMsg& msg) {
  if (msg.seq != 0) {
    if (msg.seq <= last_target_seq_) {
      ++stale_targets_dropped_;
      if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
        trace_->instant(obs::kCatHyper, hyper_track_, "targets_stale",
                        sim_.now(),
                        {{"seq", static_cast<double>(msg.seq)},
                         {"last_seq", static_cast<double>(last_target_seq_)}});
      }
      log::debug(kLogComp, "dropped stale mm_out seq %llu (last %llu)",
                 static_cast<unsigned long long>(msg.seq),
                 static_cast<unsigned long long>(last_target_seq_));
      return;
    }
    if (msg.delta && msg.base_seq != last_target_seq_) {
      // Broken delta chain (DESIGN §12): a predecessor was lost or
      // reordered, so this delta would fold onto the wrong base. Drop it
      // WITHOUT advancing last_target_seq_ — every later delta keeps
      // failing the same check until the MM's periodic full snapshot
      // restores the chain.
      ++target_chain_breaks_;
      if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
        trace_->instant(obs::kCatHyper, hyper_track_, "targets_chain_break",
                        sim_.now(),
                        {{"seq", static_cast<double>(msg.seq)},
                         {"base_seq", static_cast<double>(msg.base_seq)},
                         {"last_seq",
                          static_cast<double>(last_target_seq_)}});
      }
      log::debug(kLogComp,
                 "dropped delta mm_out seq %llu: base %llu != last %llu",
                 static_cast<unsigned long long>(msg.seq),
                 static_cast<unsigned long long>(msg.base_seq),
                 static_cast<unsigned long long>(last_target_seq_));
      return;
    }
    if (metrics_attached_ && last_target_seq_ != 0) {
      // Downlink seq gap of applied messages: 1 = lossless in-order feed,
      // >1 = delta suppression or drops upstream. Distribution, not just a
      // break counter, so a fleet report can tell routine suppression gaps
      // from rare long stalls.
      target_seq_gap_hist_.add(
          static_cast<double>(msg.seq - last_target_seq_));
    }
    last_target_seq_ = msg.seq;
  }
  set_targets(msg.targets);
}

MemStats Hypervisor::snapshot() const {
  MemStats stats;
  stats.when = sim_.now();
  stats.interval = config_.sample_interval;
  // A rack-managed node reports its *effective* capacity: the quota-capped
  // total and the headroom beneath it, so the per-VM policy (Eq. 2) always
  // renormalizes under the node's rack-assigned share. The unmanaged path
  // is byte-identical to the original single-node report; the capacity
  // helpers fold in the compressed tier and honour capacity_units.
  stats.total_tmem = capacity_total();
  stats.free_tmem = capacity_free();
  stats.vm_count = vm_count();
  stats.vm.reserve(vms_.size());
  for (const auto& [id, data] : vms_) {
    VmMemStats v;
    v.vm_id = id;
    v.puts_total = data.puts_total;
    v.puts_succ = data.puts_succ;
    v.cumul_puts_failed = data.cumul_puts_failed;
    v.tmem_used = vm_capacity_used(id);
    v.mm_target = data.mm_target;
    stats.vm.push_back(v);
  }
  return stats;
}

void Hypervisor::sample_tick() {
  MemStats stats = snapshot();
  ++samples_taken_;
  stats.seq = samples_taken_;  // 1-based; lets the MM reject stale deliveries
  if (trace_ != nullptr) {
    const SimTime now = sim_.now();
    if (trace_->enabled(obs::kCatHyper)) {
      // The VIRQ span covers the interval the emitted stats summarize.
      trace_->span(obs::kCatHyper, hyper_track_, "virq_sample",
                   last_sample_tick_, now - last_sample_tick_,
                   {{"seq", static_cast<double>(stats.seq)},
                    {"free_tmem", static_cast<double>(stats.free_tmem)}});
      trace_->counter(obs::kCatHyper, hyper_track_, "tmem_pages", now,
                      {{"used", static_cast<double>(store_.used_pages())},
                       {"free", static_cast<double>(stats.free_tmem)}});
    }
    // Per-VM interval spans, one per VM per tick — the second-hottest span
    // family after vcpu_batch: cached-category, 1-in-N sampled (each VM's
    // track samples independently).
    if (trace_tmem_) {
      for (const auto& [id, data] : vms_) {
        trace_->sampled_span(
            obs::kCatTmem, vm_track(id), "tmem_interval", last_sample_tick_,
            now - last_sample_tick_,
            {{"puts", static_cast<double>(data.puts_total)},
             {"gets", static_cast<double>(data.gets_total)},
             {"used", static_cast<double>(store_.vm_pages(id))}});
      }
    }
    last_sample_tick_ = now;
  }
  if (virq_handler_) virq_handler_(stats);
  // Interval counters restart after each VIRQ (Table I: "in the current
  // sampling interval").
  for (auto& [id, data] : vms_) {
    data.puts_total = 0;
    data.puts_succ = 0;
    data.gets_total = 0;
    data.gets_hit = 0;
    data.flushes = 0;
  }
  slow_reclaim();
}

void Hypervisor::slow_reclaim() {
  const bool byte_units = config_.capacity_units == CapacityUnits::kBytes;
  for (auto& [id, data] : vms_) {
    const std::uint64_t used =
        byte_units ? store_.vm_bytes(id) : store_.vm_pages(id);
    if (data.mm_target == kUnlimitedTarget || used <= data.mm_target) continue;
    const std::uint64_t excess = used - data.mm_target;
    // In byte mode the eviction engine still works page-at-a-time: round the
    // byte excess down to whole pages but always make progress.
    const PageCount excess_pages =
        byte_units ? std::max<PageCount>(1, excess / kPageSize) : excess;
    const PageCount quota =
        std::min(excess_pages, config_.slow_reclaim_pages_per_tick);
    const PageCount reclaimed = store_.evict_ephemeral_from_vm(id, quota);
    data.pages_reclaimed += reclaimed;
    if (reclaimed > 0) {
      if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
        trace_->instant(obs::kCatHyper, vm_track(id), "slow_reclaim",
                        sim_.now(),
                        {{"pages", static_cast<double>(reclaimed)},
                         {"excess", static_cast<double>(excess)}});
      }
      log::trace(kLogComp, "slow-reclaimed %llu pages from VM %u",
                 static_cast<unsigned long long>(reclaimed), id);
    }
  }

  // Node-quota pass: after a quota shrink the node drains down "very
  // slowly", like the per-VM path above — borrowed ephemeral pages go
  // first (they are pure cache and free a donor's frame at the next window
  // barrier), then own ephemeral pages, oldest first. No-op on an
  // unmanaged node.
  if (node_quota_ == kUnlimitedTarget) return;
  const PageCount used_total = own_used_total();
  if (used_total <= node_quota_) return;
  PageCount budget = std::min(used_total - node_quota_,
                              config_.slow_reclaim_pages_per_tick);
  PageCount released = 0;
  if (remote_ != nullptr && budget > 0) {
    released = remote_->release_borrowed(budget);
    budget -= released;
  }
  PageCount evicted = 0;
  while (budget > 0 && store_.evict_oldest_ephemeral()) {
    --budget;
    ++evicted;
  }
  node_pages_reclaimed_ += released + evicted;
  if ((released > 0 || evicted > 0) && trace_ != nullptr &&
      trace_->enabled(obs::kCatHyper)) {
    trace_->instant(obs::kCatHyper, hyper_track_, "node_quota_reclaim",
                    sim_.now(),
                    {{"released", static_cast<double>(released)},
                     {"evicted", static_cast<double>(evicted)},
                     {"excess", static_cast<double>(used_total - node_quota_)}});
  }
}

void Hypervisor::start_sampling(VirqHandler handler) {
  virq_handler_ = std::move(handler);
  sampler_.cancel();
  sampler_ = sim_.schedule_periodic(config_.sample_interval,
                                    [this] { sample_tick(); });
}

void Hypervisor::stop_sampling() {
  sampler_.cancel();
}

void Hypervisor::set_node_quota(PageCount quota) {
  node_quota_ = quota;
  ++quota_updates_;
  if (trace_ != nullptr && trace_->enabled(obs::kCatHyper)) {
    trace_->instant(obs::kCatHyper, hyper_track_, "node_quota_applied",
                    sim_.now(),
                    {{"quota", quota == kUnlimitedTarget
                                   ? -1.0
                                   : static_cast<double>(quota)},
                     {"used", static_cast<double>(own_used_total())}});
  }
  if (remote_ != nullptr && quota != kUnlimitedTarget) {
    // A shrink releases ephemeral-typed borrowed pages right away — they
    // are pure cache and every one returned frees a donor frame the rack
    // can re-grant. Own pages drain through slow_reclaim instead.
    const PageCount used = own_used_total();
    if (used > quota) remote_->release_borrowed(used - quota);
  }
}

void Hypervisor::apply_node_quota(std::uint64_t seq, PageCount quota) {
  if (seq != 0) {
    if (seq <= last_quota_seq_) {
      ++stale_quotas_dropped_;
      log::debug(kLogComp, "dropped stale node quota seq %llu (last %llu)",
                 static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(last_quota_seq_));
      return;
    }
    last_quota_seq_ = seq;
  }
  set_node_quota(quota);
}

PageCount Hypervisor::own_used_pages() const {
  // Compressed pages freed their DRAM frame but still pin node memory in
  // the pool's byte budget; the rack quota counts each as a full page — a
  // conservative ceiling that never lets a node hide usage by compressing.
  const PageCount used = store_.combined_total_pages() -
                         store_.combined_free_pages() +
                         store_.compressed_pages();
  return used > lent_pages_ ? used - lent_pages_ : 0;
}

PageCount Hypervisor::own_used_total() const {
  return own_used_pages() +
         (remote_ != nullptr ? remote_->borrowed_total() : 0);
}

PageCount Hypervisor::lendable_pages() const {
  // A donor must keep enough free frames to grow back into its own
  // entitlement (min(quota, physical)); only frames beyond that reserve are
  // lendable. This bounds lent <= physical - entitlement, so a quota grant
  // can always be honoured locally after at most a recall.
  const PageCount free = store_.combined_free_pages();
  const PageCount phys = total_tmem();
  const PageCount entitlement =
      node_quota_ == kUnlimitedTarget ? phys : std::min(node_quota_, phys);
  const PageCount own = own_used_pages();
  const PageCount reserve = entitlement > own ? entitlement - own : 0;
  return free > reserve ? free - reserve : 0;
}

std::uint64_t Hypervisor::capacity_total() const {
  const PageCount pages = effective_total_tmem();
  const std::uint64_t comp = store_.compressed_enabled()
                                 ? store_.compressed_pool().capacity_bytes()
                                 : 0;
  if (config_.capacity_units == CapacityUnits::kBytes) {
    return pages * kPageSize + comp;
  }
  return pages + comp / kPageSize;
}

std::uint64_t Hypervisor::capacity_free() const {
  if (node_quota_ != kUnlimitedTarget || remote_ != nullptr) {
    // Rack-managed node: headroom under the effective (quota-capped)
    // capacity. own_used_total() is page-granular, so byte mode counts a
    // borrowed or compressed page at kPageSize — conservative.
    const std::uint64_t total = capacity_total();
    const std::uint64_t used =
        config_.capacity_units == CapacityUnits::kBytes
            ? own_used_total() * kPageSize
            : own_used_total();
    return used >= total ? 0 : total - used;
  }
  if (config_.capacity_units == CapacityUnits::kBytes) {
    return store_.combined_free_bytes();
  }
  std::uint64_t free = store_.combined_free_pages();
  if (store_.compressed_enabled()) {
    free += store_.compressed_pool().free_bytes() / kPageSize;
  }
  return free;
}

std::uint64_t Hypervisor::vm_capacity_used(VmId vm) const {
  const PageCount borrowed =
      remote_ != nullptr ? remote_->borrowed_pages(vm) : 0;
  if (config_.capacity_units == CapacityUnits::kBytes) {
    return store_.vm_bytes(vm) + borrowed * kPageSize;
  }
  return store_.vm_pages(vm) + borrowed;
}

PageCount Hypervisor::effective_total_tmem() const {
  if (node_quota_ == kUnlimitedTarget) return total_tmem();
  // Without lending the quota can only cap the physical pool; with a broker
  // attached the quota *is* the capacity (it may exceed physical, the
  // overflow being served by donors).
  return remote_ != nullptr ? node_quota_
                            : std::min(node_quota_, total_tmem());
}

PageCount Hypervisor::host_lease(PageCount want) {
  if (want == 0) return 0;
  if (!lease_pool_) {
    // Leases reserve whole frames for other nodes — compressing them would
    // hand out credit the donor cannot honour frame-for-frame.
    lease_pool_ = store_.create_pool(kLeaseVmId, tmem::PoolType::kPersistent,
                                     /*compressible=*/false);
  }
  PageCount got = 0;
  // lendable_pages() shrinks by one per leased frame (free falls, own usage
  // does not), so the loop self-limits at exactly the lendable capacity.
  while (got < want && lendable_pages() > 0) {
    const tmem::TmemKey key{*lease_pool_, 0,
                            static_cast<std::uint32_t>(lent_pages_)};
    if (store_.put(key, 1) != tmem::PutResult::kStored) break;
    ++lent_pages_;
    ++got;
  }
  return got;
}

void Hypervisor::host_unlease(PageCount count) {
  while (count > 0 && lent_pages_ > 0) {
    --lent_pages_;
    store_.flush_page(tmem::TmemKey{*lease_pool_, 0,
                                    static_cast<std::uint32_t>(lent_pages_)});
    --count;
  }
}

bool Hypervisor::rehome_page(VmId vm, tmem::PoolType type,
                             std::uint64_t object, std::uint32_t index,
                             tmem::PagePayload payload) {
  VmData* data = find_vm(vm);
  if (data == nullptr) return false;
  // Migration, not a guest put: only a genuinely free frame may be used
  // (no ephemeral eviction) and no Algorithm-1 counters move.
  if (store_.combined_free_pages() == 0) return false;
  return store_.put(tmem::TmemKey{data->pool(type), object, index},
                    payload) != tmem::PutResult::kNoMemory;
}

PageCount Hypervisor::tmem_used(VmId vm) const {
  return store_.vm_pages(vm) +
         (remote_ != nullptr ? remote_->borrowed_pages(vm) : 0);
}

PageCount Hypervisor::target(VmId vm) const {
  const VmData* data = find_vm(vm);
  return data == nullptr ? 0 : data->mm_target;
}

const VmData& Hypervisor::vm_data(VmId vm) const {
  const VmData* data = find_vm(vm);
  if (data == nullptr) {
    throw std::out_of_range("Hypervisor::vm_data: unregistered VM");
  }
  return *data;
}

void Hypervisor::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  vm_tracks_.clear();
  last_sample_tick_ = sim_.now();
  // Resolved once here: the per-tick hot loop below tests a cached bool
  // instead of re-deriving the category mask every sample.
  trace_tmem_ = trace != nullptr && trace->enabled(obs::kCatTmem);
  if (trace_ == nullptr) return;
  hyper_track_ = trace_->register_track("hyper", "virq");
  for (const auto& [id, data] : vms_) vm_track(id);
}

std::uint16_t Hypervisor::vm_track(VmId vm) {
  auto it = vm_tracks_.find(vm);
  if (it != vm_tracks_.end()) return it->second;
  const std::uint16_t track =
      trace_->register_track("tmem", strfmt("vm%u", vm));
  vm_tracks_.emplace(vm, track);
  return track;
}

void Hypervisor::register_metrics(obs::Registry& reg) const {
  store_.register_metrics(reg, "tmem.");
  reg.add_counter("hyper.samples_taken", &samples_taken_);
  reg.add_counter("hyper.target_updates", &target_updates_);
  reg.add_gauge("hyper.sample_interval_s",
                [this] { return to_seconds(config_.sample_interval); });
  reg.add_counter("hyper.stale_targets_dropped", &stale_targets_dropped_);
  reg.add_counter("hyper.target_chain_breaks", &target_chain_breaks_);
  metrics_attached_ = true;
  reg.add_histogram("hyper.target_seq_gap", &target_seq_gap_hist_);
  reg.add_counter("hyper.quota_updates", &quota_updates_);
  reg.add_counter("hyper.stale_quotas_dropped", &stale_quotas_dropped_);
  reg.add_counter("hyper.remote_puts", &remote_puts_);
  reg.add_counter("hyper.remote_gets", &remote_gets_);
  reg.add_counter("hyper.quota_evictions", &quota_evictions_);
  reg.add_gauge("hyper.node_quota", [this] {
    return node_quota_ == kUnlimitedTarget ? -1.0
                                           : static_cast<double>(node_quota_);
  });
  reg.add_gauge("hyper.lent_pages",
                [this] { return static_cast<double>(lent_pages_); });
  reg.add_gauge("hyper.borrowed_pages", [this] {
    return remote_ != nullptr
               ? static_cast<double>(remote_->borrowed_total())
               : 0.0;
  });
  reg.add_gauge("hyper.node_pages_reclaimed", [this] {
    return static_cast<double>(node_pages_reclaimed_);
  });
  for (const auto& [id, data] : vms_) {
    const std::string prefix = strfmt("hyper.vm%u.", id);
    const VmId vm = id;
    reg.add_gauge(prefix + "tmem_used", [this, vm] {
      return static_cast<double>(store_.vm_pages(vm));
    });
    reg.add_gauge(prefix + "target", [this, vm] {
      const VmData* d = find_vm(vm);
      if (d == nullptr || d->mm_target == kUnlimitedTarget) return -1.0;
      return static_cast<double>(d->mm_target);
    });
    // Signed target-vs-usage gap: positive = headroom below target,
    // negative = over target (awaiting slow reclaim). NaN when unlimited.
    reg.add_gauge(prefix + "target_gap", [this, vm] {
      const VmData* d = find_vm(vm);
      if (d == nullptr || d->mm_target == kUnlimitedTarget) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return static_cast<double>(d->mm_target) -
             static_cast<double>(store_.vm_pages(vm));
    });
    reg.add_counter(prefix + "puts_failed", &data.cumul_puts_failed);
    reg.add_counter(prefix + "pages_reclaimed", &data.pages_reclaimed);
  }
}

}  // namespace smartmem::hyper
