// Remote-tmem lending broker: the rack's cross-node page placement.
//
// A node whose quota exceeds its physical capacity is entitled to frames it
// does not own; the broker turns that entitlement into pages backed by
// frames leased on donor nodes with spare, un-entitled frames
// (lendable_pages() > 0). Each node gets a Port implementing
// hyper::RemoteTmem; the hypervisor's Algorithm 1 falls through to the port
// when the node is physically full but below quota.
//
// Credit/lease protocol (DESIGN §11): every port operation is strictly
// local to the borrower's partition, so borrowers on different engine
// shards never touch shared state mid-window. At each window barrier
// sync_window() reserves every lendable donor frame through
// Hypervisor::host_lease and splits each donor's pool evenly across the
// borrowers as placement *credit*. A fresh placement consumes one credit;
// a flush or an ephemeral-hit consume queues the freed frame as an
// unsettled release, which the next sync_window() returns to the donor.
// Invariant, summed over the rack: leased frames == borrowed pages +
// outstanding credit + unsettled releases.
//
// Semantics:
//  - The borrower's (vm, type, object, index) key is the identity; each
//    borrower keeps a sorted map key -> (donor, payload). The payload lives
//    borrower-side; the donor holds only an opaque leased frame.
//  - Borrowed *ephemeral*-typed pages are a victim cache: a remote_get hit
//    consumes the page; release_borrowed() (quota shrink, slow reclaim)
//    drops only ephemeral-typed entries. Persistent-typed pages move only
//    through recall_lent(), which migrates them back into the borrower's
//    own store.
//  - Donor choice is a deterministic rotation over the other nodes, so a
//    given (seed, topology) always produces the same placement.
//
// Data plane: every put/get of a borrowed page is a LendFabric round trip
// (cluster/lend_fabric.hpp) over the topology's lending hops, computed
// synchronously in the borrower's partition like the paper's tmem
// hypercall. The modeled request/response exchange decides whether the
// operation succeeds at all (loss / reorder / outage / timeout, donor
// queueing, bounded retries, deterministic give-up), and its elapsed time
// reaches the guest as the `fabric` time of the TmemOp that
// remote_put/remote_get return. A borrower-side BorrowCache short-circuits
// repeated gets of hot borrowed pages.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cluster/lend_fabric.hpp"
#include "cluster/node_stats.hpp"
#include "hyper/hypervisor.hpp"
#include "hyper/remote_tmem.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace smartmem::cluster {

class LendingBroker {
 public:
  /// `nodes[i]` is node i's hypervisor; the broker holds the pointers for
  /// the cluster's lifetime. The fabric starts borrower i's exchanges at
  /// node i's simulator clock, over `topo`'s lending hops with the protocol knobs
  /// in `cfg`. No borrower holds credit until the first sync_window().
  /// Throws std::invalid_argument for fewer than 2 nodes or a config with
  /// `enabled` false.
  explicit LendingBroker(std::vector<hyper::Hypervisor*> nodes,
                         const comm::ClusterTopology& topo = {},
                         const AsyncLendingConfig& cfg = {});

  LendingBroker(const LendingBroker&) = delete;
  LendingBroker& operator=(const LendingBroker&) = delete;

  /// Node `node`'s borrower port (wire via Hypervisor::set_remote_tmem).
  hyper::RemoteTmem* port(NodeId node);

  LendFabric& fabric() { return fabric_; }
  const LendFabric& fabric() const { return fabric_; }

  /// Donor-side recall: pulls up to `max_pages` pages lent *by* `donor`
  /// back out (quota grew, the donor needs its frames again). Ephemeral-
  /// typed entries are dropped (victim cache); persistent-typed ones are
  /// migrated home into the borrower's own store when it has a free frame,
  /// and stay put otherwise. Each recalled page's leased frame returns to
  /// the donor at once. Returns pages actually recalled.
  PageCount recall_lent(NodeId donor, PageCount max_pages);

  /// Window barrier (coordinator context, all shards quiescent). Settles
  /// the window's lending activity against the donor stores: unsettled
  /// releases are unleased; donors whose entitlement grew past their lease
  /// shed unused credit and recall borrowed pages; donors with lendable
  /// frames top their lease back up to full capacity. Each such donor's
  /// credit pool is then split evenly across the borrowers, one extra frame
  /// each to the lowest borrower ids while the remainder lasts. Only dirty
  /// donors are touched: those a borrower charged or released against this
  /// window, those over their lending cap, and those with lendable frames.
  /// A clean donor's credits are already the even split of an unchanged
  /// pool. The cost is one O(1) check per node plus O(nodes) per dirty
  /// donor.
  void sync_window();

  PageCount borrowed_total(NodeId node) const;
  /// Fresh placements `borrower` may still charge against `donor`'s lease
  /// before the next sync_window().
  PageCount credit(NodeId borrower, NodeId donor) const;
  /// Frames `borrower` freed on `donor` since the last sync_window() (flush,
  /// ephemeral-hit consume, release), still leased until the next one.
  PageCount unsettled_releases(NodeId borrower, NodeId donor) const;
  /// Rack-wide peak of borrowed pages, sampled at window barriers.
  PageCount peak_borrowed() const { return peak_borrowed_; }
  std::uint64_t borrow_placements() const;
  std::uint64_t borrow_hits() const;
  std::uint64_t borrow_misses() const;
  /// Lifetime fresh placements that found no donor credit or whose
  /// exchange gave up.
  std::uint64_t failed_placements() const;
  /// Replacement puts lost to the fabric.
  std::uint64_t failed_replacements() const;
  std::uint64_t recalls() const { return recalls_; }
  std::uint64_t recall_migrations() const { return recall_migrations_; }

  /// Borrower `node`'s partition writes its trace instants to its own
  /// shard's recorder, stamped by that shard's clock (partitions run
  /// concurrently, so no recorder is shared mid-window).
  void attach_partition_obs(NodeId node, obs::TraceRecorder* trace,
                            std::function<SimTime()> clock);

  void register_metrics(obs::Registry& reg) const;

 private:
  // RemoteKey (the borrower-relative page identity) lives at namespace
  // scope in cluster/lend_fabric.hpp so the BorrowCache can share it.

  class Port final : public hyper::RemoteTmem {
   public:
    Port(LendingBroker& broker, NodeId node) : broker_(broker), node_(node) {}
    hyper::TmemOp remote_put(VmId vm, tmem::PoolType type,
                             std::uint64_t object, std::uint32_t index,
                             tmem::PagePayload payload) override {
      return broker_.do_put(node_, vm, type, object, index, payload);
    }
    hyper::TmemOp remote_get(VmId vm, tmem::PoolType type,
                             std::uint64_t object,
                             std::uint32_t index) override {
      return broker_.do_get(node_, vm, type, object, index);
    }
    bool remote_flush(VmId vm, tmem::PoolType type, std::uint64_t object,
                      std::uint32_t index) override {
      return broker_.do_flush(node_, vm, type, object, index);
    }
    bool owns(VmId vm, tmem::PoolType type, std::uint64_t object,
              std::uint32_t index) const override {
      return broker_.do_owns(node_, vm, type, object, index);
    }
    PageCount borrowed_pages(VmId vm) const override {
      return broker_.do_borrowed_pages(node_, vm);
    }
    PageCount borrowed_total() const override {
      return broker_.borrowed_total(node_);
    }
    PageCount release_borrowed(PageCount max_pages) override {
      return broker_.do_release(node_, max_pages);
    }

   private:
    LendingBroker& broker_;
    NodeId node_;
  };

  /// One borrowed page: the donor whose lease backs it and the
  /// authoritative payload (kept borrower-side, so gets and puts never
  /// cross shards mid-window).
  struct Borrowed {
    NodeId donor;
    tmem::PagePayload payload;
  };
  using Index = std::map<RemoteKey, Borrowed>;

  struct NodeState {
    NodeId self = 0;
    Index index;
    std::map<VmId, PageCount> borrowed_per_vm;
    PageCount borrowed_total = 0;
    NodeId rotation = 0;  // donor rotation cursor
    std::unique_ptr<Port> port;
    // Per-partition op counters: written from this borrower's shard
    // mid-window, summed by the accessors (which run at barriers or after
    // the run, never concurrently with a window).
    std::uint64_t placements = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t failed_placements = 0;
    /// Replacement puts the fabric failed to deliver: the borrowed entry is
    /// dropped (the guest falls back to disk) so owns() never lies. Not a
    /// placement failure.
    std::uint64_t failed_replacements = 0;
    // credit[d]: fresh placements this borrower may still charge against
    // donor d's lease before the next barrier.
    std::vector<PageCount> credit;
    // pending_release[d]: frames freed this window (flush / ephemeral-hit
    // consume) that sync_window() returns to donor d's free pool.
    std::vector<PageCount> pending_release;
    // Donors this borrower charged credit against or released a frame to
    // since the last barrier (a donor may repeat). Written only by this
    // borrower's shard, so no shared state changes mid-window.
    std::vector<NodeId> touched_donors;
    // Partition-local trace sink (attach_partition_obs).
    obs::TraceRecorder* trace = nullptr;
    std::function<SimTime()> clock;
    std::uint16_t track = 0;
  };

  /// The port's remote_put/remote_get: `fabric` in the result is the
  /// exchange's elapsed time (0 for a cache hit or an owner-index miss).
  hyper::TmemOp do_put(NodeId node, VmId vm, tmem::PoolType type,
                       std::uint64_t object, std::uint32_t index,
                       const tmem::PagePayload& payload);
  hyper::TmemOp do_get(NodeId node, VmId vm, tmem::PoolType type,
                       std::uint64_t object, std::uint32_t index);
  bool do_flush(NodeId node, VmId vm, tmem::PoolType type,
                std::uint64_t object, std::uint32_t index);
  bool do_owns(NodeId node, VmId vm, tmem::PoolType type, std::uint64_t object,
               std::uint32_t index) const;
  PageCount do_borrowed_pages(NodeId node, VmId vm) const;
  PageCount do_release(NodeId node, PageCount max_pages);

  /// Removes one borrowed entry and fixes the borrow accounting; the
  /// borrower-side cached copy dies with it. Returns the next entry.
  Index::iterator drop_entry(NodeState& st, Index::iterator it);
  /// Queues the frame behind a dying entry for return to its donor at the
  /// next sync_window(), then drops the entry.
  Index::iterator release_frame(NodeState& st, Index::iterator it);
  /// Moves every borrower's credit against `donor` into the donor's barrier
  /// pool, marks the donor dirty and returns the frames its borrowers
  /// released to it. Both per-borrower counters are zeroed.
  PageCount pool_donor(NodeId donor);
  void trace_instant(NodeState& st, const char* name, NodeId borrower,
                     NodeId donor);

  /// Per-donor sync_window() state, reset before the barrier returns.
  struct DonorSettle {
    bool dirty = false;
    PageCount pool = 0;  // credit to re-split
  };

  std::vector<hyper::Hypervisor*> hyps_;
  std::vector<NodeState> state_;
  std::vector<DonorSettle> settle_;
  LendFabric fabric_;
  PageCount peak_borrowed_ = 0;
  std::uint64_t recalls_ = 0;
  std::uint64_t recall_migrations_ = 0;
};

}  // namespace smartmem::cluster
