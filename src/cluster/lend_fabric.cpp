#include "cluster/lend_fabric.hpp"

#include <algorithm>
#include <stdexcept>

#include "comm/channel.hpp"

namespace smartmem::cluster {

void LendFabricStats::merge(const LendFabricStats& o) {
  requests += o.requests;
  responses += o.responses;
  retries += o.retries;
  timeouts += o.timeouts;
  give_ups += o.give_ups;
  lost_requests += o.lost_requests;
  lost_responses += o.lost_responses;
  late_responses += o.late_responses;
  reordered += o.reordered;
  outage_drops += o.outage_drops;
  invalidates += o.invalidates;
  get_fallbacks += o.get_fallbacks;
  req_bytes += o.req_bytes;
  resp_bytes += o.resp_bytes;
  put_rtt_us.merge(o.put_rtt_us);
  get_rtt_us.merge(o.get_rtt_us);
}

std::optional<tmem::PagePayload> BorrowCache::lookup(const RemoteKey& key) {
  if (!enabled()) return std::nullopt;
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  return it->second->second;
}

void BorrowCache::insert(const RemoteKey& key, tmem::PagePayload payload) {
  if (!enabled()) return;
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = payload;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, payload);
  map_.emplace(key, lru_.begin());
  ++insertions_;
  if (static_cast<PageCount>(map_.size()) > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

void BorrowCache::erase(const RemoteKey& key) {
  if (!enabled()) return;
  auto it = map_.find(key);
  if (it == map_.end()) return;
  lru_.erase(it->second);
  map_.erase(it);
  ++invalidations_;
}

LendFabric::LendFabric(const comm::ClusterTopology& topo,
                       AsyncLendingConfig cfg,
                       const std::vector<sim::Simulator*>& sims)
    : cfg_(cfg) {
  // An exchange is one synchronous round trip: nothing queues on a hop,
  // and every frame is sent once.
  for (const comm::ChannelConfig* hop :
       {&topo.internode_lend_req, &topo.internode_lend_resp}) {
    if (hop->faults.duplication_rate != 0.0 || hop->queue_capacity != 0 ||
        hop->queue_policy != comm::QueuePolicy::kDropNewest) {
      throw std::invalid_argument(
          "LendFabric: the lending hops model no duplication_rate, "
          "queue_capacity or drop-oldest queue_policy");
    }
  }
  const std::size_t nodes = sims.size();
  borrowers_.resize(nodes);
  for (std::size_t b = 0; b < nodes; ++b) {
    Borrower& me = borrowers_[b];
    me.cache = BorrowCache(cfg_.cache_pages);
    me.sim = sims[b];
    me.pairs.resize(nodes);
    for (std::size_t d = 0; d < nodes; ++d) {
      if (d == b) continue;
      PairLink& link = me.pairs[d];
      link.req = topo.lend_req_for(b, d);
      link.resp = topo.lend_resp_for(b, d);
      link.req_rng = Rng(link.req.seed);
      link.resp_rng = Rng(link.resp.seed);
    }
  }
}

LendFabric::Outcome LendFabric::round_trip(NodeId borrower, NodeId donor,
                                           comm::LendRequest req,
                                           bool resp_carries_page) {
  Borrower& me = borrowers_.at(borrower);
  PairLink& link = me.pairs.at(donor);
  LendFabricStats& st = me.stats;

  req.seq = link.next_seq++;
  req.borrower = borrower;

  const SimTime start = me.sim->now();
  SimTime t = start;
  bool ok = false;

  for (std::uint32_t attempt = 0; attempt < kLendMaxAttempts; ++attempt) {
    if (attempt > 0) ++st.retries;
    ++st.requests;
    st.req_bytes += req.wire_bytes();

    // Outage at send time: the frame never makes the wire; the borrower's
    // timer expires.
    if (in_outage(link.req.faults, t)) {
      ++st.outage_drops;
      ++st.timeouts;
      t += kLendTimeout;
      continue;
    }

    // Request hop: latency, reorder penalty, loss.
    SimTime req_lat = link.req.latency;
    if (link.req.faults.reorder_rate > 0.0 &&
        link.req_rng.chance(link.req.faults.reorder_rate)) {
      req_lat += link.req.faults.reorder_extra;
      ++st.reordered;
    }
    if (link.req.faults.loss_rate > 0.0 &&
        link.req_rng.chance(link.req.faults.loss_rate)) {
      ++st.lost_requests;
      ++st.timeouts;
      t += kLendTimeout;
      continue;
    }

    // Donor side: the request queues behind the donor's earlier work on
    // this pair, then holds the donor for the service time.
    const SimTime arrive = t + req_lat;
    const SimTime service_start = std::max(arrive, link.donor_next_free);
    const SimTime service_done = service_start + kDonorService;
    link.donor_next_free = service_done;

    // Response hop. An outage at the donor's send time drops the response
    // just like a loss — the borrow is now "stuck mid-flight" until the
    // borrower times out and retries (idempotent by seq).
    comm::LendResponse resp{req.seq, true, resp_carries_page};
    if (in_outage(link.resp.faults, service_done)) {
      ++st.outage_drops;
      ++st.timeouts;
      t += kLendTimeout;
      continue;
    }
    SimTime resp_lat = link.resp.latency;
    if (link.resp.faults.reorder_rate > 0.0 &&
        link.resp_rng.chance(link.resp.faults.reorder_rate)) {
      resp_lat += link.resp.faults.reorder_extra;
      ++st.reordered;
    }
    if (link.resp.faults.loss_rate > 0.0 &&
        link.resp_rng.chance(link.resp.faults.loss_rate)) {
      ++st.lost_responses;
      ++st.timeouts;
      t += kLendTimeout;
      continue;
    }

    const SimTime landed = service_done + resp_lat;
    if (landed - t > kLendTimeout) {
      // The response exists but arrives after the borrower's timer fired —
      // indistinguishable from loss on the borrower side; the stale frame
      // is discarded by its sequence number.
      ++st.late_responses;
      ++st.timeouts;
      t += kLendTimeout;
      continue;
    }

    ++st.responses;
    st.resp_bytes += resp.wire_bytes();
    t = landed;
    ok = true;
    break;
  }

  if (!ok) ++st.give_ups;
  return {ok, t - start};
}

void LendFabric::send_invalidate(NodeId borrower, NodeId donor,
                                 comm::LendOp op) {
  Borrower& me = borrowers_.at(borrower);
  PairLink& link = me.pairs.at(donor);
  comm::LendRequest req;
  req.seq = link.next_seq++;
  req.op = op;
  req.borrower = borrower;
  ++me.stats.invalidates;
  me.stats.req_bytes += req.wire_bytes();
}

void LendFabric::record_put_rtt(NodeId borrower, SimTime elapsed) {
  borrowers_.at(borrower).stats.put_rtt_us.add(
      static_cast<double>(elapsed) / static_cast<double>(kMicrosecond));
}

void LendFabric::record_get_rtt(NodeId borrower, SimTime elapsed) {
  borrowers_.at(borrower).stats.get_rtt_us.add(
      static_cast<double>(elapsed) / static_cast<double>(kMicrosecond));
}

LendFabricStats LendFabric::totals() const {
  LendFabricStats out;
  for (const Borrower& me : borrowers_) out.merge(me.stats);
  return out;
}

void LendFabric::register_metrics(obs::Registry& reg) const {
  // Snapshots run at barriers or after the run, where summing partitions
  // is safe (same contract as the broker's counters).
  reg.add_gauge("lend.fabric.requests", [this] {
    return static_cast<double>(totals().requests);
  });
  reg.add_gauge("lend.fabric.retries", [this] {
    return static_cast<double>(totals().retries);
  });
  reg.add_gauge("lend.fabric.timeouts", [this] {
    return static_cast<double>(totals().timeouts);
  });
  reg.add_gauge("lend.fabric.give_ups", [this] {
    return static_cast<double>(totals().give_ups);
  });
  reg.add_gauge("lend.fabric.get_fallbacks", [this] {
    return static_cast<double>(totals().get_fallbacks);
  });
  reg.add_gauge("lend.fabric.req_bytes", [this] {
    return static_cast<double>(totals().req_bytes);
  });
  reg.add_gauge("lend.fabric.resp_bytes", [this] {
    return static_cast<double>(totals().resp_bytes);
  });
  reg.add_gauge("lend.fabric.put_rtt_mean_us", [this] {
    const LendFabricStats t = totals();
    return t.put_rtt_us.count() > 0 ? t.put_rtt_us.mean() : 0.0;
  });
  reg.add_gauge("lend.fabric.get_rtt_mean_us", [this] {
    const LendFabricStats t = totals();
    return t.get_rtt_us.count() > 0 ? t.get_rtt_us.mean() : 0.0;
  });
  reg.add_gauge("lend.cache.hits", [this] {
    std::uint64_t n = 0;
    for (const Borrower& b : borrowers_) n += b.cache.hits();
    return static_cast<double>(n);
  });
  reg.add_gauge("lend.cache.misses", [this] {
    std::uint64_t n = 0;
    for (const Borrower& b : borrowers_) n += b.cache.misses();
    return static_cast<double>(n);
  });
  reg.add_gauge("lend.cache.invalidations", [this] {
    std::uint64_t n = 0;
    for (const Borrower& b : borrowers_) n += b.cache.invalidations();
    return static_cast<double>(n);
  });
}

}  // namespace smartmem::cluster
