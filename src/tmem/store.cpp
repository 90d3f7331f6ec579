#include "tmem/store.hpp"

#include <algorithm>
#include <cassert>

#include "obs/registry.hpp"

namespace smartmem::tmem {

TmemStore::TmemStore(StoreConfig config)
    : config_(config),
      free_pages_(config.total_pages),
      nvm_free_(config.nvm_pages),
      comp_pool_(config.compressed) {}

PoolId TmemStore::create_pool(VmId owner, PoolType type, bool compressible) {
  const auto id = static_cast<PoolId>(pools_.size());
  PoolInfo& info = pools_.emplace_back();
  info.account = &vm_accounts_[owner];
  info.owner = owner;
  info.type = type;
  info.compressible = compressible;
  return id;
}

TmemStore::PoolInfo* TmemStore::find_pool(PoolId id) {
  return id < pools_.size() ? &pools_[id] : nullptr;
}

const TmemStore::PoolInfo* TmemStore::find_pool(PoolId id) const {
  return id < pools_.size() ? &pools_[id] : nullptr;
}

PageCount TmemStore::pool_pages(PoolId pool) const {
  const PoolInfo* info = find_pool(pool);
  return info ? info->pages : 0;
}

PageCount TmemStore::vm_pages(VmId vm) const {
  auto it = vm_accounts_.find(vm);
  return it == vm_accounts_.end() ? 0 : it->second.pages;
}

std::uint64_t TmemStore::vm_bytes(VmId vm) const {
  auto it = vm_accounts_.find(vm);
  return it == vm_accounts_.end() ? 0 : it->second.bytes;
}

std::uint64_t TmemStore::effective_bytes(const Entry& e) const {
  if (e.deduped) return 0;
  if (e.tier == Tier::kCompressed) return e.comp_bytes;
  return kPageSize;
}

// ---- Slab, index and lists --------------------------------------------------

TmemStore::SlabId TmemStore::find(const TmemKey& key, std::size_t hash) const {
  if (index_.empty()) return kNil;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const SlabId id = index_[pos];
    if (id == kNil) return kNil;
    const Entry& e = entries_[id];
    if (e.key_hash == hash && e.pool == key.pool && e.object == key.object &&
        e.index == key.index) {
      return id;
    }
  }
}

void TmemStore::index_place(SlabId id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = entries_[id].key_hash & mask;
  while (index_[pos] != kNil) pos = (pos + 1) & mask;
  index_[pos] = id;
}

void TmemStore::index_insert(SlabId id) {
  ++entry_count_;
  if (2 * entry_count_ <= index_.size()) {
    index_place(id);
    return;
  }
  // Double, then re-place every live slab entry (`id` included): the old
  // index is never walked.
  index_.assign(std::max<std::size_t>(16, 2 * index_.size()), kNil);
  for (SlabId live = 0; live < entries_.size(); ++live) {
    if (entries_[live].pool != kInvalidPool) index_place(live);
  }
}

void TmemStore::index_erase(SlabId id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = entries_[id].key_hash & mask;
  while (index_[hole] != id) hole = (hole + 1) & mask;
  // Backward shift: pull later members of the probe run into the hole
  // unless that would move one before its home slot.
  for (std::size_t pos = (hole + 1) & mask; index_[pos] != kNil;
       pos = (pos + 1) & mask) {
    const std::size_t home = entries_[index_[pos]].key_hash & mask;
    if (((pos - home) & mask) >= ((pos - hole) & mask)) {
      index_[hole] = index_[pos];
      hole = pos;
    }
  }
  index_[hole] = kNil;
  --entry_count_;
}

TmemStore::SlabId TmemStore::alloc_slab() {
  if (free_slab_ == kNil) {
    entries_.emplace_back();
    return static_cast<SlabId>(entries_.size() - 1);
  }
  const SlabId id = free_slab_;
  free_slab_ = entries_[id].lru.next;
  return id;
}

void TmemStore::push_back(Ends& list, Links Entry::*links, SlabId id) {
  Links& l = entries_[id].*links;
  l.prev = list.tail;
  l.next = kNil;
  if (list.tail != kNil) {
    (entries_[list.tail].*links).next = id;
  } else {
    list.head = id;
  }
  list.tail = id;
}

void TmemStore::unlink(Ends& list, Links Entry::*links, SlabId id) {
  const Links l = entries_[id].*links;
  if (l.prev != kNil) {
    (entries_[l.prev].*links).next = l.next;
  } else {
    list.head = l.next;
  }
  if (l.next != kNil) {
    (entries_[l.next].*links).prev = l.prev;
  } else {
    list.tail = l.prev;
  }
}

void TmemStore::release_tier(const Entry& e) {
  if (!consumes_frame(e)) return;
  switch (e.tier) {
    case Tier::kCompressed:
      comp_pool_.remove(e.comp_bytes);
      break;
    case Tier::kNvm:
      ++nvm_free_;
      break;
    default:
      ++free_pages_;
      break;
  }
}

void TmemStore::erase_entry(SlabId id) {
  Entry& entry = entries_[id];
  PoolInfo& pool = pools_[entry.pool];
  VmAccount& acct = *pool.account;

  if (pool.type == PoolType::kEphemeral) {
    unlink(lru_, &Entry::lru, id);
    unlink(acct.ephemeral, &Entry::vm, id);
    assert(ephemeral_count_ > 0);
    --ephemeral_count_;
  }
  release_tier(entry);

  assert(pool.pages > 0 && acct.pages > 0);
  --pool.pages;
  --acct.pages;
  acct.bytes -= effective_bytes(entry);

  index_erase(id);
  entry = Entry{};
  entry.lru.next = free_slab_;
  free_slab_ = id;
}

bool TmemStore::try_demote(Entry& e) {
  if (e.deduped || e.tier == Tier::kNvm || e.tier == Tier::kRemote) {
    return false;
  }
  const PoolInfo& pool = pools_[e.pool];
  VmAccount& acct = *pool.account;
  if (e.tier == Tier::kDram) {
    // Compress first (the next tier down); fall through to NVM.
    if (pool.compressible) {
      const std::uint32_t cost =
          comp_pool_.page_bytes(pool.owner, pool.type, e.object, e.index);
      if (comp_pool_.fits(cost)) {
        ++free_pages_;
        comp_pool_.add(cost);
        acct.bytes -= kPageSize;
        acct.bytes += cost;
        e.tier = Tier::kCompressed;
        e.comp_bytes = cost;
        ++stats_.demotions_to_compressed;
        return true;
      }
    }
    if (nvm_free_ > 0) {
      ++free_pages_;
      --nvm_free_;
      stats_.nvm_peak_used = std::max(stats_.nvm_peak_used, nvm_used_pages());
      e.tier = Tier::kNvm;
      ++stats_.demotions_to_nvm;
      return true;
    }
    return false;
  }
  // Compressed victim: decompress into NVM if a frame is free.
  if (nvm_free_ > 0) {
    comp_pool_.remove(e.comp_bytes);
    acct.bytes -= e.comp_bytes;
    acct.bytes += kPageSize;
    e.comp_bytes = 0;
    --nvm_free_;
    stats_.nvm_peak_used = std::max(stats_.nvm_peak_used, nvm_used_pages());
    e.tier = Tier::kNvm;
    ++stats_.demotions_to_nvm;
    return true;
  }
  return false;
}

bool TmemStore::drop_one_ephemeral() {
  if (lru_.head == kNil) return false;
  erase_entry(lru_.head);
  ++stats_.ephemeral_evictions;
  return true;
}

bool TmemStore::evict_one_ephemeral() {
  if (lru_.head == kNil) return false;
  // Demote-down-the-chain only applies while the compressed tier exists;
  // with it off this is exactly the pre-tier drop path.
  if (comp_pool_.enabled() &&
      config_.compressed_evict == CompressedEvictMode::kDemote) {
    if (try_demote(entries_[lru_.head])) return true;
  }
  return drop_one_ephemeral();
}

bool TmemStore::can_place(bool comp_eligible, std::uint32_t comp_cost) const {
  return free_pages_ > 0 || (comp_eligible && comp_pool_.fits(comp_cost)) ||
         nvm_free_ > 0;
}

void TmemStore::place_entry(Entry& entry, bool comp_eligible,
                            std::uint32_t comp_cost) {
  if (free_pages_ > 0) {
    --free_pages_;
    stats_.peak_used = std::max(stats_.peak_used, used_pages());
    entry.tier = Tier::kDram;
    return;
  }
  if (comp_eligible && comp_pool_.fits(comp_cost)) {
    comp_pool_.add(comp_cost);
    entry.tier = Tier::kCompressed;
    entry.comp_bytes = comp_cost;
    ++stats_.compressed_stored;
    return;
  }
  assert(nvm_free_ > 0);
  --nvm_free_;
  stats_.nvm_peak_used = std::max(stats_.nvm_peak_used, nvm_used_pages());
  entry.tier = Tier::kNvm;
}

bool TmemStore::compressed_fits(const TmemKey& key) const {
  if (!comp_pool_.enabled()) return false;
  const PoolInfo* pool = find_pool(key.pool);
  if (!pool || !pool->compressible) return false;
  return comp_pool_.fits(
      comp_pool_.page_bytes(pool->owner, pool->type, key.object, key.index));
}

// ---- Page operations ----------------------------------------------------------

PutResult TmemStore::put(const TmemKey& key, PagePayload payload,
                         Tier* tier) {
  PoolInfo* pool = find_pool(key.pool);
  if (!pool) {
    ++stats_.puts_failed;
    return PutResult::kNoMemory;
  }

  const bool comp_eligible = comp_pool_.enabled() && pool->compressible;
  // The compressed size is a pure hash of (seed, key), read only when DRAM
  // has no free frame for the page: hash it then, at most once per put.
  std::uint32_t comp_cost = 0;
  const auto cost = [&] {
    if (comp_eligible && comp_cost == 0 && free_pages_ == 0) {
      comp_cost = comp_pool_.page_bytes(pool->owner, pool->type, key.object,
                                        key.index);
    }
    return comp_cost;
  };

  const std::size_t hash = TmemKeyHash{}(key);
  const bool now_dedup = config_.zero_page_dedup && payload == 0;

  if (SlabId id = find(key, hash); id != kNil) {
    // Overwrite in place. A dedup'd zero page that becomes non-zero needs a
    // frame (and vice versa); handle the transitions explicitly.
    const bool was_deduped = entries_[id].deduped;
    if (was_deduped && !now_dedup) {
      // Evicted victims may themselves be deduped (frameless), so keep
      // evicting until capacity is actually available somewhere.
      while (!can_place(comp_eligible, cost())) {
        if (!evict_one_ephemeral()) {
          ++stats_.puts_failed;
          return PutResult::kNoMemory;
        }
      }
      // Re-check: eviction may have removed *this* entry if it was ephemeral.
      id = find(key, hash);
      if (id == kNil) {
        return put(key, payload, tier);  // fall back to fresh insert
      }
      Entry& entry = entries_[id];
      entry.deduped = false;  // before the byte charge below
      place_entry(entry, comp_eligible, cost());
      pool->account->bytes += effective_bytes(entry);
    } else if (!was_deduped && now_dedup) {
      Entry& entry = entries_[id];
      pool->account->bytes -= effective_bytes(entry);
      release_tier(entry);
      entry.comp_bytes = 0;
      ++stats_.zero_pages_deduped;
    }
    Entry& entry = entries_[id];
    entry.deduped = now_dedup;
    entry.payload = payload;
    if (tier) *tier = entry.tier;
    ++stats_.puts_replaced;
    return PutResult::kReplaced;
  }

  Entry fresh;
  fresh.deduped = now_dedup;
  if (consumes_frame(fresh)) {
    while (!can_place(comp_eligible, cost())) {
      if (!evict_one_ephemeral()) {
        ++stats_.puts_failed;
        return PutResult::kNoMemory;
      }
    }
    place_entry(fresh, comp_eligible, cost());
  } else {
    ++stats_.zero_pages_deduped;
  }
  fresh.object = key.object;
  fresh.payload = payload;
  fresh.key_hash = hash;
  fresh.pool = key.pool;
  fresh.index = key.index;

  const SlabId id = alloc_slab();
  entries_[id] = fresh;
  index_insert(id);
  ++pool->pages;
  VmAccount& acct = *pool->account;
  ++acct.pages;
  acct.bytes += effective_bytes(fresh);
  if (pool->type == PoolType::kEphemeral) {
    push_back(lru_, &Entry::lru, id);
    push_back(acct.ephemeral, &Entry::vm, id);
    ++ephemeral_count_;
  }
  ++stats_.puts_stored;
  if (tier) *tier = fresh.tier;
  return PutResult::kStored;
}

std::optional<PagePayload> TmemStore::get(const TmemKey& key, Tier* tier) {
  const SlabId id = find(key, TmemKeyHash{}(key));
  if (id == kNil) {
    ++stats_.gets_miss;
    return std::nullopt;
  }
  const Entry& entry = entries_[id];
  const PagePayload payload = entry.payload;
  if (tier) *tier = entry.tier;
  switch (entry.tier) {
    case Tier::kCompressed:
      ++stats_.gets_hit_compressed;
      break;
    case Tier::kNvm:
      ++stats_.gets_hit_nvm;
      break;
    default:
      ++stats_.gets_hit_dram;
      break;
  }
  if (pools_[entry.pool].type == PoolType::kEphemeral) {
    // Victim-cache semantics: the page moves back into the guest.
    erase_entry(id);
  }
  ++stats_.gets_hit;
  return payload;
}

bool TmemStore::contains(const TmemKey& key) const {
  return find(key, TmemKeyHash{}(key)) != kNil;
}

bool TmemStore::flush_page(const TmemKey& key) {
  const SlabId id = find(key, TmemKeyHash{}(key));
  if (id == kNil) return false;
  erase_entry(id);
  ++stats_.pages_flushed;
  return true;
}

PageCount TmemStore::evict_ephemeral_from_vm(VmId vm, PageCount max_pages) {
  auto ait = vm_accounts_.find(vm);
  if (ait == vm_accounts_.end()) return 0;
  PageCount evicted = 0;
  // O(evicted): the per-VM list holds exactly this VM's ephemeral pages in
  // insertion order, so reclaim never scans other VMs' entries.
  SlabId cursor = ait->second.ephemeral.head;
  while (cursor != kNil && evicted < max_pages) {
    const SlabId next = entries_[cursor].vm.next;  // before erase frees it
    erase_entry(cursor);
    ++evicted;
    ++stats_.ephemeral_evictions;
    cursor = next;
  }
  return evicted;
}

void TmemStore::register_metrics(obs::Registry& reg,
                                 const std::string& prefix) const {
  reg.add_counter(prefix + "puts_stored", &stats_.puts_stored);
  reg.add_counter(prefix + "puts_replaced", &stats_.puts_replaced);
  reg.add_counter(prefix + "puts_failed", &stats_.puts_failed);
  reg.add_counter(prefix + "gets_hit", &stats_.gets_hit);
  reg.add_counter(prefix + "gets_miss", &stats_.gets_miss);
  reg.add_counter(prefix + "pages_flushed", &stats_.pages_flushed);
  reg.add_counter(prefix + "ephemeral_evictions", &stats_.ephemeral_evictions);
  reg.add_gauge(prefix + "used_pages",
                [this] { return static_cast<double>(used_pages()); });
  reg.add_gauge(prefix + "free_pages",
                [this] { return static_cast<double>(free_pages_); });
  reg.add_gauge(prefix + "ephemeral_pages",
                [this] { return static_cast<double>(ephemeral_count_); });
  if (config_.nvm_pages > 0) {
    reg.add_gauge(prefix + "nvm_used_pages",
                  [this] { return static_cast<double>(nvm_used_pages()); });
  }
  // Tier metrics only exist when the compressed tier does, so the metric
  // column set (and every exported CSV/JSONL) is unchanged by default.
  if (comp_pool_.enabled()) {
    comp_pool_.register_metrics(reg, "tier.compressed.");
    reg.add_counter("tier.compressed.stored", &stats_.compressed_stored);
    reg.add_counter("tier.compressed.demotions_in",
                    &stats_.demotions_to_compressed);
    reg.add_counter("tier.compressed.demotions_out",
                    &stats_.demotions_to_nvm);
    reg.add_counter("tier.dram.gets_hit", &stats_.gets_hit_dram);
    reg.add_counter("tier.compressed.gets_hit",
                    &stats_.gets_hit_compressed);
    reg.add_counter("tier.nvm.gets_hit", &stats_.gets_hit_nvm);
  }
}

}  // namespace smartmem::tmem
