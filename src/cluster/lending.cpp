#include "cluster/lending.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace smartmem::cluster {

namespace {

std::vector<sim::Simulator*> simulators_of(
    const std::vector<hyper::Hypervisor*>& hyps) {
  std::vector<sim::Simulator*> sims;
  sims.reserve(hyps.size());
  for (hyper::Hypervisor* h : hyps) sims.push_back(&h->simulator());
  return sims;
}

}  // namespace

LendingBroker::LendingBroker(std::vector<hyper::Hypervisor*> nodes,
                             const comm::ClusterTopology& topo,
                             const AsyncLendingConfig& cfg)
    : hyps_(std::move(nodes)), fabric_(topo, cfg, simulators_of(hyps_)) {
  if (hyps_.size() < 2) {
    throw std::invalid_argument("LendingBroker: needs at least 2 nodes");
  }
  if (!cfg.enabled) {
    throw std::invalid_argument(
        "LendingBroker: the fabric is the only lending data plane, so "
        "AsyncLendingConfig::enabled must be true");
  }
  state_.resize(hyps_.size());
  settle_.resize(hyps_.size());
  for (NodeId i = 0; i < state_.size(); ++i) {
    state_[i].self = i;
    state_[i].port = std::make_unique<Port>(*this, i);
    state_[i].credit.assign(hyps_.size(), 0);
    state_[i].pending_release.assign(hyps_.size(), 0);
  }
}

hyper::RemoteTmem* LendingBroker::port(NodeId node) {
  return state_.at(node).port.get();
}

void LendingBroker::attach_partition_obs(NodeId node,
                                         obs::TraceRecorder* trace,
                                         std::function<SimTime()> clock) {
  NodeState& st = state_.at(node);
  st.trace = trace;
  st.clock = std::move(clock);
  if (st.trace != nullptr) {
    st.track = st.trace->register_track("cluster", "lending");
  }
}

void LendingBroker::trace_instant(NodeState& st, const char* name,
                                  NodeId borrower, NodeId donor) {
  if (st.trace == nullptr || !st.trace->enabled(obs::kCatCluster)) return;
  st.trace->instant(obs::kCatCluster, st.track, name,
                    st.clock ? st.clock() : 0,
                    {{"borrower", static_cast<double>(borrower)},
                     {"donor", static_cast<double>(donor)}});
}

LendingBroker::Index::iterator LendingBroker::drop_entry(NodeState& st,
                                                         Index::iterator it) {
  // Single choke point for cache coherence: whenever a borrowed entry dies
  // (flush, release, recall, ephemeral-hit consume) the borrower-side
  // cached copy dies with it.
  fabric_.cache(st.self).erase(it->first);
  st.borrowed_total -= 1;
  auto pv = st.borrowed_per_vm.find(it->first.vm);
  if (pv != st.borrowed_per_vm.end() && --pv->second == 0) {
    st.borrowed_per_vm.erase(pv);
  }
  return st.index.erase(it);
}

LendingBroker::Index::iterator LendingBroker::release_frame(
    NodeState& st, Index::iterator it) {
  const NodeId donor = it->second.donor;
  if (st.pending_release[donor]++ == 0) st.touched_donors.push_back(donor);
  return drop_entry(st, it);
}

hyper::TmemOp LendingBroker::do_put(NodeId node, VmId vm, tmem::PoolType type,
                                    std::uint64_t object, std::uint32_t index,
                                    const tmem::PagePayload& payload) {
  NodeState& st = state_[node];
  const RemoteKey key{vm, type, object, index};
  const comm::LendRequest req{0,    comm::LendOp::kPut, node,  vm,
                              type, object,             index, true};
  hyper::TmemOp op{hyper::OpStatus::kNoCapacity, tmem::Tier::kRemote};

  // Replacement of a key the broker already holds stays on its donor and
  // swaps the payload without consuming a new frame.
  auto it = st.index.find(key);
  if (it != st.index.end()) {
    const NodeId donor = it->second.donor;
    const LendFabric::Outcome out =
        fabric_.round_trip(node, donor, req, /*resp_carries_page=*/false);
    op.fabric = out.elapsed;
    if (!out.ok) {
      // The replacement never reached the donor and the guest is about to
      // fall back to disk — drop the entry (and free the stale donor frame)
      // so owns() never vouches for a payload the guest stopped trusting.
      ++st.failed_replacements;
      fabric_.send_invalidate(node, donor, comm::LendOp::kFlush);
      release_frame(st, it);
      return op;
    }
    fabric_.record_put_rtt(node, out.elapsed);
    fabric_.cache(node).insert(key, payload);
    it->second.payload = payload;
    op.status = hyper::OpStatus::kSuccess;
    return op;
  }

  // Fresh placement: deterministic rotation over the other nodes, first
  // donor with remaining window credit wins. The cursor advances past a
  // chosen donor so successive placements spread instead of piling on node
  // 0. The credit probe only *selects* the donor; the request/response
  // exchange then decides whether the placement lands — and a transport
  // give-up degrades to a local failed put rather than hammering the next
  // donor with a guest already waiting on its timeout.
  const NodeId n = static_cast<NodeId>(hyps_.size());
  for (NodeId j = 0; j < n; ++j) {
    const NodeId donor = (node + 1 + st.rotation + j) % n;
    if (donor == node || st.credit[donor] == 0) continue;
    const LendFabric::Outcome out =
        fabric_.round_trip(node, donor, req, /*resp_carries_page=*/false);
    op.fabric = out.elapsed;
    if (!out.ok) {
      ++st.failed_placements;
      return op;
    }
    fabric_.record_put_rtt(node, out.elapsed);
    fabric_.cache(node).insert(key, payload);
    st.credit[donor] -= 1;
    st.touched_donors.push_back(donor);
    st.index.emplace(key, Borrowed{donor, payload});
    st.borrowed_total += 1;
    st.borrowed_per_vm[vm] += 1;
    st.rotation = (st.rotation + j + 1) % n;
    ++st.placements;
    trace_instant(st, "borrow_place", node, donor);
    op.status = hyper::OpStatus::kSuccess;
    return op;
  }
  ++st.failed_placements;
  return op;
}

hyper::TmemOp LendingBroker::do_get(NodeId node, VmId vm, tmem::PoolType type,
                                    std::uint64_t object, std::uint32_t index) {
  NodeState& st = state_[node];
  const RemoteKey key{vm, type, object, index};
  auto it = st.index.find(key);
  if (it == st.index.end()) {
    // The owner index is borrower-local knowledge — a miss costs no wire.
    ++st.misses;
    return {hyper::OpStatus::kNotFound};
  }
  const NodeId donor = it->second.donor;
  hyper::TmemOp op{hyper::OpStatus::kSuccess, tmem::Tier::kRemote};

  // Borrower-side cache: a hit serves the page at the access point and
  // skips the inter-node round trip entirely (a disabled cache never hits).
  if (const auto cached = fabric_.cache(node).lookup(key)) {
    ++st.hits;
    fabric_.record_get_rtt(node, 0);
    if (type == tmem::PoolType::kEphemeral) {
      // Exclusivity survives the cache: the donor copy is consumed via a
      // fire-and-forget invalidate (drop_entry also erases the cache).
      fabric_.send_invalidate(node, donor, comm::LendOp::kFlush);
      release_frame(st, it);
    }
    trace_instant(st, "borrow_cache_hit", node, donor);
    op.payload = *cached;
    return op;
  }

  comm::LendRequest req{0,    comm::LendOp::kGet, node,  vm,
                        type, object,             index, false};
  const LendFabric::Outcome out =
      fabric_.round_trip(node, donor, req, /*resp_carries_page=*/true);
  op.fabric = out.elapsed;
  if (out.ok) {
    fabric_.record_get_rtt(node, out.elapsed);
  } else {
    // A persistent get holds the only copy of guest data — it must not
    // fail. The broker rescues it synchronously (the reliable control-plane
    // path), charging the accumulated timeout cost.
    fabric_.count_get_fallback(node);
  }

  op.payload = it->second.payload;
  ++st.hits;
  if (type == tmem::PoolType::kPersistent) {
    // Hot borrowed pages earn a seat at the access point; ephemeral pages
    // are consumed on their first (and only) hit below.
    fabric_.cache(node).insert(key, op.payload);
  }
  if (type == tmem::PoolType::kEphemeral) {
    // Victim-cache semantics survive the rack hop: an ephemeral hit
    // consumes the page.
    release_frame(st, it);
  }
  trace_instant(st, "borrow_hit", node, donor);
  return op;
}

bool LendingBroker::do_flush(NodeId node, VmId vm, tmem::PoolType type,
                             std::uint64_t object, std::uint32_t index) {
  NodeState& st = state_[node];
  auto it = st.index.find(RemoteKey{vm, type, object, index});
  if (it == st.index.end()) return false;
  // A guest flush does not wait on the donor: the invalidate frame is
  // fire-and-forget; the frame itself returns at the next barrier.
  fabric_.send_invalidate(node, it->second.donor, comm::LendOp::kFlush);
  release_frame(st, it);
  return true;
}

PageCount LendingBroker::do_flush_object(NodeId node, VmId vm,
                                         tmem::PoolType type,
                                         std::uint64_t object) {
  NodeState& st = state_[node];
  PageCount flushed = 0;
  // RemoteKey orders by (vm, type, object, index): the object's pages form
  // one contiguous index range.
  auto it = st.index.lower_bound(RemoteKey{vm, type, object, 0});
  while (it != st.index.end() && it->first.vm == vm &&
         it->first.type == type && it->first.object == object) {
    fabric_.send_invalidate(node, it->second.donor,
                            comm::LendOp::kFlushObject);
    it = release_frame(st, it);
    ++flushed;
  }
  return flushed;
}

bool LendingBroker::do_owns(NodeId node, VmId vm, tmem::PoolType type,
                            std::uint64_t object, std::uint32_t index) const {
  const NodeState& st = state_[node];
  return st.index.contains(RemoteKey{vm, type, object, index});
}

PageCount LendingBroker::do_borrowed_pages(NodeId node, VmId vm) const {
  const NodeState& st = state_[node];
  auto it = st.borrowed_per_vm.find(vm);
  return it == st.borrowed_per_vm.end() ? 0 : it->second;
}

PageCount LendingBroker::borrowed_total(NodeId node) const {
  return state_.at(node).borrowed_total;
}

PageCount LendingBroker::credit(NodeId borrower, NodeId donor) const {
  return state_.at(borrower).credit.at(donor);
}

PageCount LendingBroker::unsettled_releases(NodeId borrower,
                                            NodeId donor) const {
  return state_.at(borrower).pending_release.at(donor);
}

std::uint64_t LendingBroker::borrow_placements() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.placements;
  return total;
}

std::uint64_t LendingBroker::borrow_hits() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.hits;
  return total;
}

std::uint64_t LendingBroker::borrow_misses() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.misses;
  return total;
}

std::uint64_t LendingBroker::failed_placements() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.failed_placements;
  return total;
}

std::uint64_t LendingBroker::failed_replacements() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.failed_replacements;
  return total;
}

PageCount LendingBroker::do_release(NodeId node, PageCount max_pages) {
  NodeState& st = state_[node];
  PageCount released = 0;
  auto it = st.index.begin();
  while (it != st.index.end() && released < max_pages) {
    if (it->first.type != tmem::PoolType::kEphemeral) {
      ++it;
      continue;
    }
    fabric_.send_invalidate(node, it->second.donor, comm::LendOp::kFlush);
    it = release_frame(st, it);
    ++released;
  }
  return released;
}

PageCount LendingBroker::recall_lent(NodeId donor, PageCount max_pages) {
  PageCount recalled = 0;
  // Walk every borrower's entries pointing at this donor, borrowers in
  // node order, keys in index order — fully deterministic.
  for (NodeId b = 0; b < state_.size() && recalled < max_pages; ++b) {
    if (b == donor) continue;
    NodeState& st = state_[b];
    auto it = st.index.begin();
    while (it != st.index.end() && recalled < max_pages) {
      if (it->second.donor != donor) {
        ++it;
        continue;
      }
      const RemoteKey& key = it->first;
      if (key.type == tmem::PoolType::kPersistent) {
        // Migrate the only copy home. When the borrower has no free frame
        // the page must stay borrowed.
        if (!hyps_[b]->rehome_page(key.vm, key.type, key.object, key.index,
                                   it->second.payload)) {
          ++it;
          continue;
        }
        ++recall_migrations_;
        trace_instant(st, "recall_migrate", b, donor);
      }
      // An ephemeral entry is a victim cache: the borrower just loses the
      // cached copy.
      it = drop_entry(st, it);
      ++recalled;
      ++recalls_;
    }
  }
  // Recalled pages give their leased frames straight back to the donor.
  if (recalled > 0) hyps_[donor]->host_unlease(recalled);
  return recalled;
}

PageCount LendingBroker::pool_donor(NodeId donor) {
  DonorSettle& ds = settle_[donor];
  ds.dirty = true;
  PageCount freed = 0;
  for (NodeState& st : state_) {
    ds.pool += std::exchange(st.credit[donor], 0);
    freed += std::exchange(st.pending_release[donor], 0);
  }
  return freed;
}

void LendingBroker::sync_window() {
  const NodeId n = static_cast<NodeId>(hyps_.size());

  // 1. Donors a borrower charged or released against this window: pool
  //    their unused credit (counters only, no store traffic) and unlease
  //    the unsettled releases.
  for (NodeState& st : state_) {
    for (const NodeId d : st.touched_donors) settle_[d].dirty = true;
    st.touched_donors.clear();
  }
  for (NodeId d = 0; d < n; ++d) {
    if (!settle_[d].dirty) continue;
    const PageCount freed = pool_donor(d);
    if (freed > 0) hyps_[d]->host_unlease(freed);
  }

  // 2. Entitlement pressure: a donor whose quota grew needs frames back.
  //    Shed unused credit first (free), recall actually-borrowed pages only
  //    for the remainder. An untouched donor has no releases to return.
  for (NodeId d = 0; d < n; ++d) {
    const hyper::Hypervisor& hyp = *hyps_[d];
    const PageCount phys = hyp.total_tmem();
    const PageCount quota = hyp.node_quota();
    const PageCount entitlement =
        quota == kUnlimitedTarget ? phys : std::min(quota, phys);
    const PageCount cap = phys > entitlement ? phys - entitlement : 0;
    PageCount lent = hyp.lent_pages();
    if (lent <= cap) continue;
    DonorSettle& ds = settle_[d];
    if (!ds.dirty) pool_donor(d);
    PageCount excess = lent - cap;
    const PageCount shed = std::min(excess, ds.pool);
    if (shed > 0) {
      hyps_[d]->host_unlease(shed);
      ds.pool -= shed;
      excess -= shed;
    }
    if (excess > 0) recall_lent(d, excess);
  }

  // 3. Top every dirty or lendable donor's lease back up to its lendable
  //    capacity and split the pool evenly as next window's credit: each
  //    borrower gets pool / (n - 1), and the remainder goes one frame each
  //    to the lowest borrower ids. Any other donor's credits are the split
  //    of a pool nobody charged, released or re-leased, so they stand.
  const PageCount borrowers = n - 1;
  for (NodeId d = 0; d < n; ++d) {
    DonorSettle& ds = settle_[d];
    if (!ds.dirty) {
      if (hyps_[d]->lendable_pages() == 0) continue;
      pool_donor(d);
    }
    const PageCount pool =
        ds.pool + hyps_[d]->host_lease(hyps_[d]->lendable_pages());
    ds = DonorSettle{};
    if (pool == 0) continue;  // pool_donor() already zeroed the credits
    PageCount extra = pool % borrowers;
    for (NodeId b = 0; b < n; ++b) {
      if (b == d) continue;
      state_[b].credit[d] = pool / borrowers + (extra > 0 ? 1 : 0);
      if (extra > 0) --extra;
    }
  }

  PageCount total = 0;
  for (const NodeState& s : state_) total += s.borrowed_total;
  peak_borrowed_ = std::max(peak_borrowed_, total);
}

void LendingBroker::register_metrics(obs::Registry& reg) const {
  // Placements/hits/misses live per partition; the registry snapshots only
  // at barriers (or after the run), where summing is safe.
  reg.add_gauge("lend.borrow_placements", [this] {
    return static_cast<double>(borrow_placements());
  });
  reg.add_gauge("lend.borrow_hits",
                [this] { return static_cast<double>(borrow_hits()); });
  reg.add_gauge("lend.borrow_misses",
                [this] { return static_cast<double>(borrow_misses()); });
  reg.add_gauge("lend.failed_placements",
                [this] { return static_cast<double>(failed_placements()); });
  reg.add_counter("lend.recalls", &recalls_);
  reg.add_counter("lend.recall_migrations", &recall_migrations_);
  reg.add_gauge("lend.peak_borrowed",
                [this] { return static_cast<double>(peak_borrowed_); });
  reg.add_gauge("lend.borrowed_total", [this] {
    PageCount total = 0;
    for (const NodeState& s : state_) total += s.borrowed_total;
    return static_cast<double>(total);
  });
}

}  // namespace smartmem::cluster
