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
  const PoolId id = next_pool_++;
  PoolInfo info;
  info.owner = owner;
  info.type = type;
  info.compressible = compressible;
  info.alive = true;
  pools_.emplace(id, std::move(info));
  return id;
}

void TmemStore::destroy_pool(PoolId pool) {
  auto it = pools_.find(pool);
  if (it == pools_.end() || !it->second.alive) return;
  // Collect keys first: erase_entry mutates the object index we iterate.
  std::vector<TmemKey> keys;
  keys.reserve(it->second.pages);
  for (const auto& [object, indices] : it->second.objects) {
    for (std::uint32_t index : indices) {
      keys.push_back(TmemKey{pool, object, index});
    }
  }
  for (const auto& key : keys) {
    auto eit = entries_.find(key);
    assert(eit != entries_.end());
    erase_entry(eit);
  }
  pools_.erase(pool);
}

bool TmemStore::pool_exists(PoolId pool) const {
  auto it = pools_.find(pool);
  return it != pools_.end() && it->second.alive;
}

std::optional<PoolType> TmemStore::pool_type(PoolId pool) const {
  auto it = pools_.find(pool);
  if (it == pools_.end()) return std::nullopt;
  return it->second.type;
}

std::optional<VmId> TmemStore::pool_owner(PoolId pool) const {
  auto it = pools_.find(pool);
  if (it == pools_.end()) return std::nullopt;
  return it->second.owner;
}

PageCount TmemStore::pool_pages(PoolId pool) const {
  auto it = pools_.find(pool);
  return it == pools_.end() ? 0 : it->second.pages;
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

void TmemStore::lru_push_back(Entry* e) {
  e->lru_prev = lru_tail_;
  e->lru_next = nullptr;
  if (lru_tail_) {
    lru_tail_->lru_next = e;
  } else {
    lru_head_ = e;
  }
  lru_tail_ = e;
  ++ephemeral_count_;

  VmAccount& acct = vm_accounts_[e->owner];
  e->vm_prev = acct.eph_tail;
  e->vm_next = nullptr;
  if (acct.eph_tail) {
    acct.eph_tail->vm_next = e;
  } else {
    acct.eph_head = e;
  }
  acct.eph_tail = e;
}

void TmemStore::lru_unlink(Entry* e) {
  if (e->lru_prev) {
    e->lru_prev->lru_next = e->lru_next;
  } else {
    lru_head_ = e->lru_next;
  }
  if (e->lru_next) {
    e->lru_next->lru_prev = e->lru_prev;
  } else {
    lru_tail_ = e->lru_prev;
  }
  e->lru_prev = nullptr;
  e->lru_next = nullptr;
  assert(ephemeral_count_ > 0);
  --ephemeral_count_;

  VmAccount& acct = vm_accounts_[e->owner];
  if (e->vm_prev) {
    e->vm_prev->vm_next = e->vm_next;
  } else {
    acct.eph_head = e->vm_next;
  }
  if (e->vm_next) {
    e->vm_next->vm_prev = e->vm_prev;
  } else {
    acct.eph_tail = e->vm_prev;
  }
  e->vm_prev = nullptr;
  e->vm_next = nullptr;
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

void TmemStore::erase_entry(EntryMap::iterator it) {
  const TmemKey key = it->first;
  Entry& entry = it->second;

  if (entry.type == PoolType::kEphemeral) {
    lru_unlink(&entry);
  }
  release_tier(entry);

  auto pit = pools_.find(key.pool);
  assert(pit != pools_.end());
  PoolInfo& pool = pit->second;
  --pool.pages;
  auto oit = pool.objects.find(key.object);
  assert(oit != pool.objects.end());
  oit->second.erase(key.index);
  if (oit->second.empty()) pool.objects.erase(oit);

  auto vit = vm_accounts_.find(entry.owner);
  assert(vit != vm_accounts_.end() && vit->second.pages > 0);
  --vit->second.pages;
  vit->second.bytes -= effective_bytes(entry);

  entries_.erase(it);
}

bool TmemStore::try_demote(Entry& e) {
  if (e.deduped || e.tier == Tier::kNvm || e.tier == Tier::kRemote) {
    return false;
  }
  VmAccount& acct = vm_accounts_[e.owner];
  if (e.tier == Tier::kDram) {
    // Compress first (the next tier down); fall through to NVM.
    if (e.compressible) {
      const std::uint32_t cost = comp_pool_.page_bytes(
          e.owner, e.type, e.key->object, e.key->index);
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
  if (!lru_head_) return false;
  Entry* victim = lru_head_;
  // The cached hash avoids re-mixing the key on every eviction probe.
  auto it = entries_.find(HashedTmemKey{*victim->key, victim->key_hash});
  assert(it != entries_.end() && &it->second == victim);
  erase_entry(it);
  ++stats_.ephemeral_evictions;
  return true;
}

bool TmemStore::evict_one_ephemeral() {
  if (!lru_head_) return false;
  // Demote-down-the-chain only applies while the compressed tier exists;
  // with it off this is exactly the pre-tier drop path.
  if (comp_pool_.enabled() &&
      config_.compressed_evict == CompressedEvictMode::kDemote) {
    if (try_demote(*lru_head_)) return true;
  }
  return drop_one_ephemeral();
}

bool TmemStore::can_place(bool comp_eligible, std::uint32_t comp_cost) const {
  return free_pages_ > 0 || (comp_eligible && comp_pool_.fits(comp_cost)) ||
         nvm_free_ > 0;
}

void TmemStore::place_entry(Entry& entry, const TmemKey& key,
                            bool comp_eligible, std::uint32_t comp_cost) {
  (void)key;
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
  auto pit = pools_.find(key.pool);
  if (pit == pools_.end() || !pit->second.alive ||
      !pit->second.compressible) {
    return false;
  }
  return comp_pool_.fits(comp_pool_.page_bytes(
      pit->second.owner, pit->second.type, key.object, key.index));
}

PutResult TmemStore::put(const TmemKey& key, PagePayload payload,
                         Tier* tier) {
  auto pit = pools_.find(key.pool);
  if (pit == pools_.end() || !pit->second.alive) {
    ++stats_.puts_failed;
    return PutResult::kNoMemory;
  }
  PoolInfo& pool = pit->second;

  const bool comp_eligible = comp_pool_.enabled() && pool.compressible;
  const std::uint32_t comp_cost =
      comp_eligible
          ? comp_pool_.page_bytes(pool.owner, pool.type, key.object, key.index)
          : 0;

  const std::size_t hash = TmemKeyHash{}(key);
  const HashedTmemKey hashed{key, hash};

  if (auto eit = entries_.find(hashed); eit != entries_.end()) {
    // Overwrite in place. A dedup'd zero page that becomes non-zero needs a
    // frame (and vice versa); handle the transitions explicitly.
    Entry& entry = eit->second;
    const bool was_deduped = entry.deduped;
    const bool now_dedup = config_.zero_page_dedup && payload == 0;
    if (was_deduped && !now_dedup) {
      // Evicted victims may themselves be deduped (frameless), so keep
      // evicting until capacity is actually available somewhere.
      while (!can_place(comp_eligible, comp_cost)) {
        if (!evict_one_ephemeral()) {
          ++stats_.puts_failed;
          return PutResult::kNoMemory;
        }
      }
      // Re-check: eviction may have removed *this* entry if it was ephemeral.
      eit = entries_.find(hashed);
      if (eit == entries_.end()) {
        return put(key, payload, tier);  // fall back to fresh insert
      }
      eit->second.deduped = false;  // before the byte charge below
      place_entry(eit->second, key, comp_eligible, comp_cost);
      vm_accounts_[eit->second.owner].bytes +=
          effective_bytes(eit->second);
    } else if (!was_deduped && now_dedup) {
      vm_accounts_[entry.owner].bytes -= effective_bytes(entry);
      release_tier(entry);
      entry.comp_bytes = 0;
      ++stats_.zero_pages_deduped;
    }
    eit->second.deduped = now_dedup;
    eit->second.payload = payload;
    if (tier) *tier = eit->second.tier;
    ++stats_.puts_replaced;
    return PutResult::kReplaced;
  }

  Entry entry;
  entry.payload = payload;
  entry.owner = pool.owner;
  entry.type = pool.type;
  entry.compressible = pool.compressible;
  entry.deduped = config_.zero_page_dedup && payload == 0;
  entry.key_hash = hash;

  if (consumes_frame(entry)) {
    while (!can_place(comp_eligible, comp_cost)) {
      if (!evict_one_ephemeral()) {
        ++stats_.puts_failed;
        return PutResult::kNoMemory;
      }
    }
    place_entry(entry, key, comp_eligible, comp_cost);
  } else {
    ++stats_.zero_pages_deduped;
  }

  auto [eit, inserted] = entries_.emplace(key, entry);
  assert(inserted);
  Entry& stored = eit->second;
  stored.key = &eit->first;
  ++pool.pages;
  pool.objects[key.object].insert(key.index);
  VmAccount& acct = vm_accounts_[pool.owner];
  ++acct.pages;
  acct.bytes += effective_bytes(stored);
  if (stored.type == PoolType::kEphemeral) {
    lru_push_back(&stored);
  }
  ++stats_.puts_stored;
  if (tier) *tier = stored.tier;
  return PutResult::kStored;
}

std::optional<PagePayload> TmemStore::get(const TmemKey& key, Tier* tier) {
  auto it = entries_.find(HashedTmemKey{key, TmemKeyHash{}(key)});
  if (it == entries_.end()) {
    ++stats_.gets_miss;
    return std::nullopt;
  }
  const PagePayload payload = it->second.payload;
  if (tier) *tier = it->second.tier;
  switch (it->second.tier) {
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
  if (it->second.type == PoolType::kEphemeral) {
    // Victim-cache semantics: the page moves back into the guest.
    erase_entry(it);
  }
  ++stats_.gets_hit;
  return payload;
}

bool TmemStore::contains(const TmemKey& key) const {
  return entries_.contains(key);
}

std::optional<Tier> TmemStore::tier_of(const TmemKey& key) const {
  auto it = entries_.find(HashedTmemKey{key, TmemKeyHash{}(key)});
  if (it == entries_.end()) return std::nullopt;
  return it->second.tier;
}

bool TmemStore::flush_page(const TmemKey& key) {
  auto it = entries_.find(HashedTmemKey{key, TmemKeyHash{}(key)});
  if (it == entries_.end()) return false;
  erase_entry(it);
  ++stats_.pages_flushed;
  return true;
}

PageCount TmemStore::flush_object(PoolId pool, std::uint64_t object) {
  auto pit = pools_.find(pool);
  if (pit == pools_.end()) return 0;
  auto oit = pit->second.objects.find(object);
  if (oit == pit->second.objects.end()) return 0;

  std::vector<std::uint32_t> indices(oit->second.begin(), oit->second.end());
  PageCount freed = 0;
  for (std::uint32_t index : indices) {
    auto eit = entries_.find(TmemKey{pool, object, index});
    assert(eit != entries_.end());
    erase_entry(eit);
    ++freed;
  }
  stats_.pages_flushed += freed;
  ++stats_.objects_flushed;
  return freed;
}

PageCount TmemStore::evict_ephemeral_from_vm(VmId vm, PageCount max_pages) {
  auto ait = vm_accounts_.find(vm);
  if (ait == vm_accounts_.end()) return 0;
  PageCount evicted = 0;
  // O(evicted): the per-VM list holds exactly this VM's ephemeral pages in
  // insertion order, so reclaim never scans other VMs' entries (the global
  // LRU walk this replaces was O(all ephemeral pages) per reclaim tick).
  Entry* cursor = ait->second.eph_head;
  while (cursor && evicted < max_pages) {
    Entry* next = cursor->vm_next;  // grab before erase unlinks the node
    auto eit = entries_.find(HashedTmemKey{*cursor->key, cursor->key_hash});
    assert(eit != entries_.end() && &eit->second == cursor);
    erase_entry(eit);
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
