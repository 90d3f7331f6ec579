// The node-wide transcendent-memory store.
//
// This is the storage half of Xen's tmem backend: pools, objects, pages and
// free-capacity accounting. It deliberately contains *no* allocation policy —
// whether a put is allowed to consume a page is decided one layer up by the
// Hypervisor (Algorithm 1 of the paper); the store only answers "is there a
// physical page available, possibly after evicting ephemeral data".
//
// Tier chain: new pages fill DRAM first, then the zswap-style compressed
// tier (byte-budgeted, see src/tier), then NVM (Ex-Tmem). The compressed
// tier is off by default; with it off the store is byte-identical to the
// pre-tier system.
//
// Layout: entries live in a slab (a vector with a free list) and are found
// through one open-addressed index of slab ids. The global and per-VM
// ephemeral lists are threaded through the slab by id. Every walk goes
// through those lists, whose order is the simulated order; nothing iterates
// the index, whose order depends on hashes and capacity.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "tier/compressed_pool.hpp"
#include "tmem/key.hpp"

namespace smartmem::obs {
class Registry;
}

namespace smartmem::tmem {

/// What happens to a compressed-capable ephemeral victim when the store
/// needs room (zswap's writeback question):
///  * kDrop: discard it — the pre-tier behaviour, cheapest, loses the page.
///  * kDemote: move it one tier down the chain instead (DRAM victims
///    compress; compressed victims decompress into NVM); only when the
///    lower tier has room, else drop. Slow-reclaim and node-quota eviction
///    always drop — their whole point is shrinking the footprint.
enum class CompressedEvictMode : std::uint8_t { kDrop, kDemote };

struct StoreConfig {
  /// Capacity of the pooled idle/fallow memory, in pages (DRAM tier).
  PageCount total_pages = 0;
  /// Capacity of the optional NVM tier (Ex-Tmem extension). New pages fill
  /// DRAM first and spill into NVM when DRAM is exhausted. 0 disables.
  PageCount nvm_pages = 0;
  /// Xen tmem optional feature: pages whose payload is all-zero are
  /// deduplicated and consume no physical frame. Off by default to match the
  /// paper's configuration; the ablation bench turns it on.
  bool zero_page_dedup = false;
  /// Compressed tier (src/tier): byte budget + compressibility model.
  /// capacity_bytes 0 disables (the default).
  tier::CompressedPoolConfig compressed;
  CompressedEvictMode compressed_evict = CompressedEvictMode::kDemote;
};

struct StoreStats {
  std::uint64_t puts_stored = 0;
  std::uint64_t puts_replaced = 0;
  std::uint64_t puts_failed = 0;
  std::uint64_t gets_hit = 0;
  std::uint64_t gets_miss = 0;
  std::uint64_t pages_flushed = 0;
  std::uint64_t ephemeral_evictions = 0;
  std::uint64_t zero_pages_deduped = 0;
  PageCount peak_used = 0;      // high-water mark, DRAM tier
  PageCount nvm_peak_used = 0;  // high-water mark, NVM tier
  // ---- Compressed-tier counters (all zero when the tier is off) ----
  std::uint64_t compressed_stored = 0;      // placements into the tier
  std::uint64_t demotions_to_compressed = 0;  // DRAM victim compressed
  std::uint64_t demotions_to_nvm = 0;         // victim decompressed into NVM
  // ---- Per-tier get hits (gets_hit = sum + remote hits counted upstream) --
  std::uint64_t gets_hit_dram = 0;
  std::uint64_t gets_hit_compressed = 0;
  std::uint64_t gets_hit_nvm = 0;
};

enum class PutResult : std::uint8_t {
  kStored,    // new page consumed (or dedup'd)
  kReplaced,  // key already present; payload overwritten in place
  kNoMemory,  // no free page and nothing evictable
};

class TmemStore {
 public:
  explicit TmemStore(StoreConfig config);
  // Pools point into vm_accounts_: a copy would point into the original.
  TmemStore(const TmemStore&) = delete;
  TmemStore& operator=(const TmemStore&) = delete;
  TmemStore(TmemStore&&) = default;
  TmemStore& operator=(TmemStore&&) = default;

  // ---- Pool management -----------------------------------------------

  /// Creates a pool owned by `owner`. Pool ids are never reused.
  /// `compressible` = false keeps every page of the pool out of the
  /// compressed tier — the cluster layer marks donor-side lender/lease
  /// pools this way so borrowed pages never double-compress.
  PoolId create_pool(VmId owner, PoolType type, bool compressible = true);

  /// Pages currently held by the pool.
  PageCount pool_pages(PoolId pool) const;

  /// Pages currently held across all pools of a VM.
  PageCount vm_pages(VmId vm) const;

  /// Effective bytes held across all pools of a VM: compressed pages count
  /// at their compressed size, uncompressed pages at kPageSize, deduped
  /// zero pages at 0. The byte-aware control plane manages this number.
  std::uint64_t vm_bytes(VmId vm) const;

  // ---- Page operations -------------------------------------------------

  /// Stores `payload` under `key`. May evict ephemeral pages to find room
  /// (never evicts persistent ones). Fails with kNoMemory when the node is
  /// genuinely full of persistent data. If `tier` is non-null it receives
  /// the tier the page landed in (DRAM, then compressed, then NVM).
  PutResult put(const TmemKey& key, PagePayload payload, Tier* tier = nullptr);

  /// Looks up `key`. On a hit in an ephemeral pool the page is removed
  /// (victim-cache semantics); persistent hits leave the page in place.
  /// If `tier` is non-null it receives the tier that served the hit.
  std::optional<PagePayload> get(const TmemKey& key, Tier* tier = nullptr);

  /// Non-destructive lookup.
  bool contains(const TmemKey& key) const;

  /// Drops one page. Returns true if the key existed.
  bool flush_page(const TmemKey& key);

  /// Evicts up to `max_pages` ephemeral pages belonging to `vm` (oldest
  /// first). Used by the hypervisor's slow background reclaim of over-target
  /// VMs. Always drops (never demotes): reclaim must shrink the VM's
  /// footprint. Returns the number of pages actually evicted. O(evicted):
  /// walks the VM's own insertion-ordered list, not the global LRU.
  PageCount evict_ephemeral_from_vm(VmId vm, PageCount max_pages);

  /// Frees one frame by dropping the globally least-recently-inserted
  /// ephemeral page, whichever VM owns it. The hypervisor's node-quota
  /// enforcement recycles capacity this way so a quota-capped node's
  /// footprint stays flat (always drops, never demotes).
  bool evict_oldest_ephemeral() { return drop_one_ephemeral(); }

  // ---- Accounting -------------------------------------------------------

  PageCount total_pages() const { return config_.total_pages; }
  PageCount free_pages() const { return free_pages_; }
  PageCount used_pages() const { return config_.total_pages - free_pages_; }
  PageCount nvm_total_pages() const { return config_.nvm_pages; }
  PageCount nvm_free_pages() const { return nvm_free_; }
  PageCount nvm_used_pages() const { return config_.nvm_pages - nvm_free_; }
  /// Combined capacity/free across the page-granular tiers (what
  /// page-denominated policies reason about). Excludes the compressed
  /// tier, whose page capacity is elastic — see compressed_pages().
  PageCount combined_total_pages() const {
    return config_.total_pages + config_.nvm_pages;
  }
  PageCount combined_free_pages() const { return free_pages_ + nvm_free_; }
  PageCount ephemeral_pages() const { return ephemeral_count_; }

  // ---- Compressed tier -----------------------------------------------

  bool compressed_enabled() const { return comp_pool_.enabled(); }
  /// Pages currently resident in the compressed tier.
  PageCount compressed_pages() const { return comp_pool_.pages(); }
  /// True when the page at `key` could be admitted to the compressed tier
  /// right now without any eviction (pool compressible + bytes fit).
  bool compressed_fits(const TmemKey& key) const;
  const tier::CompressedPool& compressed_pool() const { return comp_pool_; }

  /// Byte-space capacity across all tiers: page-granular tiers count at
  /// kPageSize per page, the compressed tier contributes its byte budget.
  std::uint64_t combined_total_bytes() const {
    return combined_total_pages() * kPageSize + comp_pool_.capacity_bytes();
  }
  std::uint64_t combined_free_bytes() const {
    return combined_free_pages() * kPageSize +
           (comp_pool_.enabled() ? comp_pool_.free_bytes() : 0);
  }

  const StoreStats& stats() const { return stats_; }

  /// Registers the store's counters and capacity gauges into `reg`, names
  /// prefixed with `prefix` (e.g. "tmem."). Compressed-tier gauges appear
  /// under "tier.compressed." / "tier.<t>.gets_hit" only when the tier is
  /// enabled, so the metric column set is unchanged by default. The
  /// registry reads the live counters at snapshot time; the store must
  /// outlive it.
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  using SlabId = std::uint32_t;
  static constexpr SlabId kNil = ~0u;

  /// Intrusive links of one list an entry sits on.
  struct Links {
    SlabId prev = kNil;
    SlabId next = kNil;
  };
  /// Head (oldest) and tail (newest) of one intrusive list.
  struct Ends {
    SlabId head = kNil;
    SlabId tail = kNil;
  };

  struct Entry {
    std::uint64_t object = 0;
    PagePayload payload = 0;
    std::size_t key_hash = 0;  // cached TmemKeyHash of the key
    PoolId pool = kInvalidPool;  // kInvalidPool marks a free slab slot
    std::uint32_t index = 0;
    std::uint32_t comp_bytes = 0;  // bytes charged while tier == kCompressed
    Tier tier = Tier::kDram;
    bool deduped = false;  // zero page, consumes no frame
    Links lru;  // global ephemeral LRU (ephemeral only); next links free slots
    Links vm;   // owner VM's ephemeral list (ephemeral only)
  };
  static_assert(sizeof(Entry) == 56);

  /// Per-VM accounting: page/byte tallies plus the VM's own ephemeral
  /// insertion-order list, so per-VM reclaim walks only the pages it may
  /// evict instead of scanning the global LRU.
  struct VmAccount {
    PageCount pages = 0;
    std::uint64_t bytes = 0;  // effective bytes (see vm_bytes())
    Ends ephemeral;
  };

  struct PoolInfo {
    VmAccount* account = nullptr;  // the owner's (vm_accounts_ never moves it)
    VmId owner = kInvalidVm;
    PoolType type = PoolType::kEphemeral;
    bool compressible = true;
    PageCount pages = 0;
  };

  /// The pool `id`, or nullptr.
  PoolInfo* find_pool(PoolId id);
  const PoolInfo* find_pool(PoolId id) const;

  /// Slab id of `key` (whose TmemKeyHash is `hash`), or kNil.
  SlabId find(const TmemKey& key, std::size_t hash) const;

  /// Adds entry `id` to the index, growing it to keep the load at most 1/2.
  void index_insert(SlabId id);
  void index_place(SlabId id);  // linear probe to the first empty slot

  /// Removes entry `id` from the index by backward-shift deletion.
  void index_erase(SlabId id);

  SlabId alloc_slab();

  void push_back(Ends& list, Links Entry::*links, SlabId id);
  void unlink(Ends& list, Links Entry::*links, SlabId id);

  /// Removes an entry, updating all accounting, and frees its slab slot.
  void erase_entry(SlabId id);

  /// Effective bytes the entry occupies (0 deduped, comp_bytes compressed,
  /// kPageSize otherwise).
  std::uint64_t effective_bytes(const Entry& e) const;

  /// Releases the frame/bytes the entry holds back to its tier.
  void release_tier(const Entry& e);

  /// Capacity-pressure eviction: drop — or, in kDemote mode, move down the
  /// tier chain — the globally oldest ephemeral page. Every call frees
  /// capacity in the victim's current tier or removes an ephemeral entry,
  /// so eviction loops terminate. Returns false when nothing is evictable.
  bool evict_one_ephemeral();

  /// Unconditionally drops the globally oldest ephemeral page.
  bool drop_one_ephemeral();

  /// Moves `e` one tier down the chain if the lower tier has room *right
  /// now* (no recursive eviction). The entry keeps its LRU position — its
  /// age does not change, so a re-picked victim keeps moving strictly down
  /// and is finally dropped. Returns false when nothing below has room.
  bool try_demote(Entry& e);

  bool consumes_frame(const Entry& e) const { return !e.deduped; }

  /// True when a page of `comp_cost` compressed bytes from a compressible
  /// pool — or any page at all — could be placed without eviction. Like
  /// place_entry(), reads `comp_cost` only while DRAM has no free frame.
  bool can_place(bool comp_eligible, std::uint32_t comp_cost) const;

  /// Takes capacity for a new entry along the chain (DRAM, compressed,
  /// NVM), setting entry.tier/comp_bytes and charging the compressed pool.
  /// can_place() must be true.
  void place_entry(Entry& entry, bool comp_eligible, std::uint32_t comp_cost);

  StoreConfig config_;
  PageCount free_pages_;
  PageCount nvm_free_;
  tier::CompressedPool comp_pool_;
  std::vector<PoolInfo> pools_;  // indexed by PoolId; ids are never reused
  std::vector<Entry> entries_;   // the slab
  SlabId free_slab_ = kNil;      // free slots, linked through lru.next
  std::size_t entry_count_ = 0;
  std::vector<SlabId> index_;    // power-of-two size, kNil = empty
  std::unordered_map<VmId, VmAccount> vm_accounts_;
  Ends lru_;  // global ephemeral LRU, oldest first
  PageCount ephemeral_count_ = 0;
  StoreStats stats_;
};

}  // namespace smartmem::tmem
