// Conservative-sync engine edge cases: lookahead validation, deterministic
// ordering of simultaneous cross-shard deliveries, shard-local periodic
// events spanning the sync horizon, and the sparse barrier drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "comm/topology.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace smartmem::sim {
namespace {

constexpr SimTime kLookahead = 100;

TEST(ParallelEngineTest, ZeroLookaheadRejected) {
  EXPECT_THROW(ParallelEngine({/*lookahead=*/0}), std::invalid_argument);
  EXPECT_THROW(ParallelEngine({/*lookahead=*/-5}), std::invalid_argument);
}

TEST(ParallelEngineTest, ZeroDelayHopHasZeroLookahead) {
  // A zero-delay hop offers no safe window: the minimum inter-node latency
  // is 0, so the engine rejects a multi-node rack on such a topology.
  comm::ClusterTopology topo;
  EXPECT_GT(topo.min_internode_latency(), 0);  // default fixed 5 ms hops
  topo.internode_up.latency = 0;
  EXPECT_EQ(topo.min_internode_latency(), 0);
}

TEST(ParallelEngineTest, FasterHopSetsLookahead) {
  comm::ClusterTopology topo;
  topo.internode_down.latency = kMillisecond;
  EXPECT_EQ(topo.min_internode_latency(), kMillisecond);
}

/// Two source shards each post a pair of messages due at the SAME instant on
/// a third shard. Destination execution order must be (time, src, seq) —
/// source 0's messages before source 1's, and within a source, posting
/// order.
TEST(ParallelEngineTest, SimultaneousCrossShardEventsOrderBySrcThenSeq) {
  Simulator s0, s1, s2;
  ParallelEngine eng({kLookahead});
  const std::size_t a = eng.add_shard(&s0);
  const std::size_t b = eng.add_shard(&s1);
  const std::size_t c = eng.add_shard(&s2);

  std::vector<std::string> order;
  auto stage = [&](Simulator& sim, std::size_t src, const std::string& tag) {
    sim.schedule_at(10, [&, src, tag] {
      eng.post(src, c, 10 + kLookahead,
               [&order, tag] { order.push_back(tag + "-first"); });
      eng.post(src, c, 10 + kLookahead,
               [&order, tag] { order.push_back(tag + "-second"); });
    });
  };
  stage(s0, a, "src0");
  stage(s1, b, "src1");

  eng.run([] { return false; }, 1'000);
  const std::vector<std::string> want = {"src0-first", "src0-second",
                                         "src1-first", "src1-second"};
  EXPECT_EQ(order, want);
}

/// A shard-local periodic ticks straight through window barriers: one
/// period far below the lookahead (many fires per window) and one far above
/// it (a fire every few windows), while a second shard keeps cross-shard
/// traffic flowing so windows actually happen.
TEST(ParallelEngineTest, PeriodicEventsSpanSyncHorizon) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead});
  const std::size_t a = eng.add_shard(&s0);
  const std::size_t b = eng.add_shard(&s1);

  std::uint64_t short_fires = 0;
  std::uint64_t long_fires = 0;
  std::vector<SimTime> long_times;
  s0.schedule_periodic(7, [&] { ++short_fires; });  // << lookahead
  s0.schedule_periodic(260, [&] {                   // >> lookahead
    ++long_fires;
    long_times.push_back(s0.now());
  });
  // Ping-pong keeps both shards live until the deadline cuts the run.
  std::function<void(std::size_t, std::size_t, Simulator*)> bounce =
      [&](std::size_t src, std::size_t dst, Simulator* src_sim) {
        eng.post(src, dst, src_sim->now() + kLookahead, [&, src, dst] {
          Simulator* other = dst == a ? &s0 : &s1;
          bounce(dst, src, other);
        });
      };
  s1.schedule_at(1, [&] { bounce(b, a, &s1); });

  const SimTime deadline = 2'000;
  eng.run([] { return false; }, deadline);
  EXPECT_GT(eng.windows_run(), 10u);  // the run really was windowed
  // Both periodics fire for every multiple of their period below the
  // deadline — no tick is lost or duplicated at a window boundary.
  EXPECT_EQ(short_fires, (deadline - 1) / 7);
  EXPECT_EQ(long_fires, (deadline - 1) / 260);
  for (std::size_t i = 0; i < long_times.size(); ++i) {
    EXPECT_EQ(long_times[i], static_cast<SimTime>(260 * (i + 1)));
  }
}

/// Idle stretches: with nothing pending before t=5000, the engine must skip
/// ahead instead of marching W-sized windows through dead time.
TEST(ParallelEngineTest, SkipsIdleGaps) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead});
  eng.add_shard(&s0);
  eng.add_shard(&s1);
  int fired = 0;
  s0.schedule_at(5'000, [&] { ++fired; });
  s1.schedule_at(5'010, [&] { ++fired; });
  eng.run([] { return false; }, 100'000);
  EXPECT_EQ(fired, 2);
  EXPECT_LE(eng.windows_run(), 3u);
}

TEST(ParallelEngineTest, StopWhenCutsRunAtBarrier) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead});
  eng.add_shard(&s0);
  eng.add_shard(&s1);
  int fired = 0;
  for (SimTime t = 1; t <= 10'000; t += 50) {
    s0.schedule_at(t, [&] { ++fired; });
  }
  const SimTime end = eng.run([&] { return fired >= 5; }, 1'000'000);
  EXPECT_GE(fired, 5);
  EXPECT_LT(fired, 200);  // stopped long before the queue drained
  EXPECT_LE(end, 1'000);
}

/// Sparse barrier drain at rack width: 65 shards, each source posting to
/// a few destinations per window (one destination several times, one hot
/// destination from every source), plus barrier-hook posts that only the
/// second drain of a barrier injects. Window posts are due at most 2 ns
/// after the window end and hook posts 50 ns after it, so no two drains
/// deliver at the same instant and every destination must see its
/// deliveries in exactly (when, src, seq) order.
struct Delivery {
  SimTime when;
  std::size_t src;
  std::uint64_t seq;
  bool operator<(const Delivery& o) const {
    if (when != o.when) return when < o.when;
    if (src != o.src) return src < o.src;
    return seq < o.seq;
  }
  bool operator==(const Delivery& o) const {
    return when == o.when && src == o.src && seq == o.seq;
  }
};

struct SparseDrainResult {
  std::vector<std::vector<Delivery>> received;  // per destination
  std::vector<std::vector<Delivery>> sent;      // per destination
  std::uint64_t windows = 0;
  std::uint64_t posted = 0;
};

SparseDrainResult run_sparse_drain() {
  constexpr std::size_t kShards = 65;
  constexpr int kWindows = 8;
  std::vector<Simulator> sims(kShards);
  ParallelEngine eng({kLookahead});
  for (Simulator& sim : sims) eng.add_shard(&sim);

  SparseDrainResult r;
  r.received.resize(kShards);
  r.sent.resize(kShards);
  // sent[] and next_seq[src] are written by src's own events inside a
  // window, or by the hook at the barrier; received[dst] only by dst's.
  std::vector<std::vector<std::vector<Delivery>>> sent_by(
      kShards, std::vector<std::vector<Delivery>>(kShards));
  std::vector<std::uint64_t> next_seq(kShards, 0);
  auto post = [&](std::size_t src, std::size_t dst, SimTime when) {
    const Delivery d{when, src, next_seq[src]++};
    sent_by[src][dst].push_back(d);
    eng.post(src, dst, when, [&r, &sims, dst, d] {
      r.received[dst].push_back(Delivery{sims[dst].now(), d.src, d.seq});
    });
  };
  for (std::size_t src = 0; src < kShards; ++src) {
    for (int w = 0; w < kWindows; ++w) {
      // Window w runs [10 + 100w, 110 + 100w): every shard has an event at
      // its start.
      const SimTime t = 10 + kLookahead * w;
      sims[src].schedule_at(t, [&post, src, w, t] {
        const SimTime due = t + kLookahead + static_cast<SimTime>(src % 3);
        post(src, (src + 1) % kShards, due);
        post(src, (src * 7 + static_cast<std::size_t>(w)) % kShards, due);
        for (int k = 0; k < 3; ++k) post(src, (src + 11) % kShards, due);
        post(src, 5, due);  // hot destination
      });
    }
  }
  int barriers = 0;
  eng.set_barrier_hook([&](SimTime end) {
    const std::size_t src = static_cast<std::size_t>(barriers) % kShards;
    post(src, (src + 29) % kShards, end + 50);
    post(src, (src + 29) % kShards, end + 50);
    post((src + 1) % kShards, 5, end + 50);
    ++barriers;
  });
  eng.run([] { return false; }, 10 + kLookahead * (kWindows + 2));
  r.windows = eng.windows_run();
  r.posted = eng.messages_posted();
  for (std::size_t src = 0; src < kShards; ++src) {
    for (std::size_t dst = 0; dst < kShards; ++dst) {
      r.sent[dst].insert(r.sent[dst].end(), sent_by[src][dst].begin(),
                         sent_by[src][dst].end());
    }
  }
  return r;
}

TEST(ParallelEngineTest, SparseDrainDeliversEveryPostOnceInOrder) {
  const SparseDrainResult base = run_sparse_drain();
  std::uint64_t delivered = 0;
  for (std::size_t dst = 0; dst < base.received.size(); ++dst) {
    const std::vector<Delivery>& got = base.received[dst];
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "dst=" << dst;
    // No delivery lost or replayed. Hook posts of the last barriers fall
    // past the deadline and stay pending, so compare what was due before.
    std::vector<Delivery> want = base.sent[dst];
    std::erase_if(want, [&](const Delivery& d) {
      return d.when >= 10 + kLookahead * 10;
    });
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "dst=" << dst;
    delivered += got.size();
  }
  EXPECT_GT(base.received[5].size(), 65u * 8);  // the hot destination
  EXPECT_GE(base.windows, 8u);
  EXPECT_GE(base.posted, delivered);
}

/// A delivery due before its window ends would race events the destination
/// already ran. Every build type must reject it, not reorder it.
TEST(ParallelEngineTest, LookaheadViolationThrowsInEveryBuild) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead});
  const std::size_t a = eng.add_shard(&s0);
  const std::size_t b = eng.add_shard(&s1);
  bool delivered = false;
  s0.schedule_at(10, [&] {
    eng.post(a, b, 10 + kLookahead / 2, [&] { delivered = true; });
  });
  EXPECT_THROW(eng.run([] { return false; }, 1'000), std::logic_error);
  EXPECT_FALSE(delivered);
}

TEST(ParallelEngineTest, CrossShardChannelRejectsDropOldestBounded) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead});
  const std::size_t a = eng.add_shard(&s0);
  const std::size_t b = eng.add_shard(&s1);
  comm::ChannelConfig cfg;
  cfg.name = "x";
  cfg.latency = kLookahead;
  cfg.queue_capacity = 4;
  cfg.queue_policy = comm::QueuePolicy::kDropOldest;
  comm::Channel<int> chan(s0, cfg);
  EXPECT_THROW(chan.bind_cross_shard(&eng, a, b), std::invalid_argument);
}

}  // namespace
}  // namespace smartmem::sim
