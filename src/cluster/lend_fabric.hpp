// The lending data plane: fabric round trips + borrower cache.
//
// A borrow put/get is a sequenced request/response frame pair
// (comm/lend_wire.hpp) crossing the topology's lending-hop channels; it is
// the only way a page reaches a donor's frame. Like the paper's tmem
// hypercall, one exchange is synchronous: the LendFabric computes it
// deterministically inside the borrower's partition, from the borrower's
// clock, and schedules no event:
//
//  * each hop's fixed latency (comm::ClusterTopology::lend_*_for);
//  * loss, reorder (a late response is indistinguishable from a lost one)
//    and outage windows mid-borrow, drawn from a private per-(borrower,
//    donor) Rng stream, with a per-attempt
//    timeout and bounded retries; exhausting the attempts is a
//    deterministic give-up that the broker turns into a failed put;
//  * donor-side queueing: requests on a pair serialize behind the donor's
//    service time (donor_next_free), so bursts see rising RTTs.
//
// Everything — Rng streams, donor queues, the cache — is partitioned per
// borrower, so a window never touches another shard's state; donor stores
// still settle only at window barriers (LendingBroker::sync_window).
//
// The BorrowCache is the access-point cache of the SmartOffloading /
// "Flexible Swapping for the Cloud" lineage: a bounded LRU of hot borrowed
// pages on the borrower side, so repeated gets stop paying inter-node RTTs.
// Capacity 0 disables it entirely (no lookups, no stats, no Rng effect).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/node_stats.hpp"
#include "comm/lend_wire.hpp"
#include "comm/topology.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "tmem/key.hpp"

namespace smartmem::cluster {

/// Borrower-relative identity of one borrowed page. Ordered, so release
/// and recall walk a borrower's pages in a deterministic order.
struct RemoteKey {
  VmId vm;
  tmem::PoolType type;
  std::uint64_t object;
  std::uint32_t index;

  friend auto operator<=>(const RemoteKey&, const RemoteKey&) = default;
};

/// Donor-side service time per lending request (page copy + index update);
/// requests on a (borrower, donor) pair queue behind it.
inline constexpr SimTime kDonorService = 5 * kMicrosecond;

/// Borrower-side timer per attempt: an attempt whose response has not
/// landed within it is retried (or given up).
inline constexpr SimTime kLendTimeout = 2 * kMillisecond;

/// Attempts per exchange before the deterministic give-up.
inline constexpr std::uint32_t kLendMaxAttempts = 3;

/// Protocol knobs of the lending data plane. The wire model itself
/// (latency, faults) lives on the topology's internode_lend_req/resp
/// channel templates.
struct AsyncLendingConfig {
  /// Must stay true: the fabric is the only lending data plane, and the
  /// LendingBroker constructor throws std::invalid_argument otherwise.
  /// Kept only until the benchmark runner stops assigning it.
  bool enabled = true;

  /// Borrower-side cache capacity in pages; 0 disables the cache.
  PageCount cache_pages = 0;
};

/// Aggregated fabric counters (summed over borrower partitions; safe to
/// read at barriers or after the run, never mid-window).
struct LendFabricStats {
  std::uint64_t requests = 0;        // request frames sent (incl. retries)
  std::uint64_t responses = 0;       // responses that landed in time
  std::uint64_t retries = 0;         // attempts after the first
  std::uint64_t timeouts = 0;        // attempts the borrower timer expired
  std::uint64_t give_ups = 0;        // exchanges that exhausted every attempt
  std::uint64_t lost_requests = 0;   // request frames lost in flight
  std::uint64_t lost_responses = 0;  // response frames lost in flight
  std::uint64_t late_responses = 0;  // responses that landed after timeout
  std::uint64_t reordered = 0;       // frames given the reorder penalty
  std::uint64_t outage_drops = 0;    // sends inside an outage window
  std::uint64_t invalidates = 0;     // fire-and-forget flush/release frames
  std::uint64_t get_fallbacks = 0;   // gets rescued synchronously (broker)
  std::uint64_t req_bytes = 0;       // modeled wire bytes, request hop
  std::uint64_t resp_bytes = 0;      // modeled wire bytes, response hop
  RunningStats put_rtt_us;           // successful put exchanges
  RunningStats get_rtt_us;           // borrowed gets incl. cache hits (0 us)

  void merge(const LendFabricStats& o);
};

/// Bounded LRU of borrowed-page payloads at the borrower's access point.
/// Keys mirror the broker's index; the broker invalidates on flush,
/// release and donor recall so the cache can never serve a page the
/// broker no longer owns. A capacity of 0 turns every method into a no-op.
class BorrowCache {
 public:
  explicit BorrowCache(PageCount capacity = 0) : capacity_(capacity) {}

  bool enabled() const { return capacity_ > 0; }
  PageCount capacity() const { return capacity_; }
  PageCount size() const { return static_cast<PageCount>(map_.size()); }

  /// Hit moves the entry to MRU. Counts one hit or miss when enabled.
  std::optional<tmem::PagePayload> lookup(const RemoteKey& key);

  /// Insert/refresh; evicts from the LRU tail past capacity.
  void insert(const RemoteKey& key, tmem::PagePayload payload);

  /// Invalidation (flush / release / donor recall). Counts only when an
  /// entry actually existed.
  void erase(const RemoteKey& key);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t insertions() const { return insertions_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations() const { return invalidations_; }

 private:
  using LruList = std::list<std::pair<RemoteKey, tmem::PagePayload>>;

  PageCount capacity_;
  LruList lru_;  // front = MRU
  std::map<RemoteKey, LruList::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
};

/// The modeled data plane. One instance serves every borrower; all mutable
/// state is partitioned by borrower so partitions can run concurrently.
class LendFabric {
 public:
  /// Outcome of one request/response exchange.
  struct Outcome {
    bool ok = false;       // a response landed within some attempt's timeout
    SimTime elapsed = 0;   // modeled duration (success RTT or sum of timeouts)
  };

  /// `sims[b]` is borrower b's simulator, whose clock starts b's exchanges.
  /// Throws std::invalid_argument when either lending hop sets a
  /// duplication rate, a queue capacity or a queue policy other than
  /// drop-newest: the fabric models none of them.
  LendFabric(const comm::ClusterTopology& topo, AsyncLendingConfig cfg,
             const std::vector<sim::Simulator*>& sims);

  const AsyncLendingConfig& config() const { return cfg_; }

  /// Simulates the full exchange for `req` against `donor`, including
  /// donor-side queueing, faults, timeout and retries. Fills req.seq.
  /// Called only from borrower `borrower`'s partition; schedules nothing.
  Outcome round_trip(NodeId borrower, NodeId donor, comm::LendRequest req,
                     bool resp_carries_page);

  /// Fire-and-forget invalidation frame (flush / release / recall ack).
  /// The borrower does not block on it; only bytes and counters move.
  void send_invalidate(NodeId borrower, NodeId donor, comm::LendOp op);

  /// Counts a get the broker rescued synchronously after a give-up (the
  /// guest-facing contract: persistent gets must return the page).
  void count_get_fallback(NodeId borrower) {
    ++borrowers_.at(borrower).stats.get_fallbacks;
  }

  void record_put_rtt(NodeId borrower, SimTime elapsed);
  void record_get_rtt(NodeId borrower, SimTime elapsed);

  BorrowCache& cache(NodeId borrower) { return borrowers_.at(borrower).cache; }
  const BorrowCache& cache(NodeId borrower) const {
    return borrowers_.at(borrower).cache;
  }

  LendFabricStats totals() const;
  void register_metrics(obs::Registry& reg) const;

 private:
  /// One (borrower, donor) direction of the fabric: the two hop configs,
  /// their private Rng streams and the donor-side service queue.
  struct PairLink {
    comm::ChannelConfig req;
    comm::ChannelConfig resp;
    Rng req_rng{1};
    Rng resp_rng{1};
    std::uint64_t next_seq = 1;
    SimTime donor_next_free = 0;  // donor service queue on this pair
  };

  struct Borrower {
    std::vector<PairLink> pairs;  // indexed by donor id
    BorrowCache cache;
    sim::Simulator* sim = nullptr;
    LendFabricStats stats;
  };

  static bool in_outage(const comm::FaultSpec& f, SimTime t) {
    return f.down_from >= 0 && t >= f.down_from && t < f.down_until;
  }

  AsyncLendingConfig cfg_;
  std::vector<Borrower> borrowers_;
};

}  // namespace smartmem::cluster
