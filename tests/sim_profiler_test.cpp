// Engine self-profiler: per-window accounting invariants (the window wall
// time sums each window's busiest shard, no shard is busier than it, exactly
// one critical shard per window), injection attribution on both ends of a
// cross-shard hop, idle-skip accounting, bottleneck naming under a
// deliberately lopsided load, and — the profiler's core contract — that
// attaching one changes nothing about the simulation itself.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

#include "sim/parallel.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"

namespace smartmem::sim {
namespace {

constexpr SimTime kLookahead = 100;

/// Ping-pong scenario shared by several tests: shard a posts to shard b and
/// back.
struct PingPong {
  Simulator s0, s1;
  ParallelEngine eng;
  std::size_t a, b;
  std::uint64_t a_events = 0, b_events = 0;
  std::function<void(std::size_t, std::size_t, Simulator*)> bounce;

  PingPong()
      : eng({kLookahead}), a(eng.add_shard(&s0)), b(eng.add_shard(&s1)) {
    bounce = [this](std::size_t src, std::size_t dst, Simulator* sim) {
      eng.post(src, dst, sim->now() + kLookahead, [this, src, dst] {
        if (dst == a) {
          ++a_events;
          bounce(dst, src, &s0);
        } else {
          ++b_events;
          bounce(dst, src, &s1);
        }
      });
    };
    s0.schedule_at(1, [this] { bounce(a, b, &s0); });
  }
};

TEST(EngineProfilerTest, WindowWallSumsEachWindowsBusiestShard) {
  // Three windows over three shards with known busy times: the window wall
  // time is the sum of each window's maximum, and each window books exactly
  // one critical shard (a tie goes to the lowest id).
  EngineProfiler prof;
  prof.resize(3);
  const std::uint64_t busy[3][3] = {{5, 9, 2}, {7, 7, 1}, {0, 0, 4}};
  SimTime start = 0;
  for (const auto& window : busy) {
    prof.begin_window(start, start);
    for (std::size_t i = 0; i < 3; ++i) {
      prof.record_shard_window(i, window[i], 1);
    }
    prof.end_window();
    start += kLookahead;
  }
  const EngineProfiler::Report rep = prof.report();
  EXPECT_EQ(rep.windows, 3u);
  EXPECT_EQ(rep.window_wall_ns, 9u + 7u + 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(prof.shard(i).critical_windows, 1u) << i;
    EXPECT_EQ(prof.shard(i).events, 3u) << i;
  }
  EXPECT_EQ(prof.shard(0).busy_ns, 12u);
  // Critical counts tie, so total busy names the bottleneck.
  ASSERT_NE(rep.bottleneck_shard(), nullptr);
  EXPECT_EQ(rep.bottleneck_shard()->label, "s1");
}

TEST(EngineProfilerTest, WindowAccountingInvariants) {
  PingPong pp;
  EngineProfiler prof;
  pp.eng.set_profiler(&prof);
  pp.eng.run([] { return false; }, 20'000);

  const EngineProfiler::Report rep = prof.report();
  EXPECT_EQ(rep.windows, pp.eng.windows_run());
  ASSERT_GT(rep.windows, 10u);
  ASSERT_EQ(rep.shards.size(), 2u);

  std::uint64_t busy_total = 0;
  std::uint64_t critical_total = 0;
  for (const EngineProfiler::ShardProfile* s : rep.shards) {
    // No shard is busier in a window than that window's critical path...
    EXPECT_LE(s->busy_ns, rep.window_wall_ns) << s->label;
    busy_total += s->busy_ns;
    critical_total += s->critical_windows;
  }
  // ...and each window's critical path is one shard's busy time.
  EXPECT_LE(rep.window_wall_ns, busy_total);
  // Exactly one shard is critical per window, no window unattributed.
  EXPECT_EQ(critical_total, rep.windows);

  // Both shards executed their bounce events and the profiler saw them
  // (the +1 is the t=1 kick-off event that starts the ping-pong).
  EXPECT_EQ(rep.shards[0]->events + rep.shards[1]->events,
            pp.a_events + pp.b_events + 1);
  EXPECT_GT(pp.a_events, 0u);
}

TEST(EngineProfilerTest, InjectionsAttributedToBothEnds) {
  PingPong pp;
  EngineProfiler prof;
  pp.eng.set_profiler(&prof);
  pp.eng.run([] { return false; }, 10'000);

  // A ping-pong alternates strictly: every message one shard stages is
  // delivered into the other, so out/in totals mirror across the pair.
  const auto& sa = prof.shard(pp.a);
  const auto& sb = prof.shard(pp.b);
  EXPECT_GT(sa.injections_out, 0u);
  EXPECT_EQ(sa.injections_out, sb.injections_in);
  EXPECT_EQ(sb.injections_out, sa.injections_in);
  // Every executed bounce arrived as one drained injection; at most a
  // couple staged near the deadline were drained but never executed.
  const std::uint64_t hops = sa.injections_out + sb.injections_out;
  EXPECT_GE(hops, pp.a_events + pp.b_events);
  EXPECT_LE(hops, pp.a_events + pp.b_events + 2);
}

TEST(EngineProfilerTest, IdleSkipCoversDeadTime) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead});
  eng.add_shard(&s0);
  eng.add_shard(&s1);
  EngineProfiler prof;
  eng.set_profiler(&prof);
  int fired = 0;
  s0.schedule_at(5'000, [&] { ++fired; });
  s1.schedule_at(5'010, [&] { ++fired; });
  eng.run([] { return false; }, 100'000);
  EXPECT_EQ(fired, 2);
  // Nothing is pending before t=5000; the engine jumps there and the
  // profiler books the jump as idle skip instead of empty windows.
  EXPECT_GE(prof.idle_skip(), 4'000);
  EXPECT_EQ(prof.windows(), eng.windows_run());
}

TEST(EngineProfilerTest, BottleneckNamesTheLoadedShard) {
  // Shard a grinds a short-period spinning periodic in *every* window while
  // shard b only relays the ping-pong: a must win the critical-path
  // attribution by a landslide, whatever the host clock resolution is.
  PingPong pp;
  pp.s0.schedule_periodic(7, [] {
    volatile std::uint64_t sink = 0;
    for (std::size_t i = 0; i < 20'000; ++i) sink = sink + i;
  });
  EngineProfiler prof;
  prof.set_shard_label(pp.a, "hot");
  prof.set_shard_label(pp.b, "cold");
  pp.eng.set_profiler(&prof);
  pp.eng.run([] { return false; }, 50'000);

  const EngineProfiler::Report rep = prof.report();
  ASSERT_NE(rep.bottleneck_shard(), nullptr);
  EXPECT_EQ(rep.bottleneck_shard()->label, "hot");
  EXPECT_GT(prof.shard(pp.a).busy_ns, prof.shard(pp.b).busy_ns);
  EXPECT_GT(prof.shard(pp.a).critical_windows,
            prof.shard(pp.b).critical_windows);
}

TEST(EngineProfilerTest, ProfiledRunMatchesUnprofiledRun) {
  // The profiler reads clocks and counters only — same seedless scenario,
  // with and without one attached, must execute the identical event set.
  auto run = [](EngineProfiler* prof) {
    PingPong pp;
    pp.eng.set_profiler(prof);
    const SimTime end = pp.eng.run([] { return false; }, 30'000);
    return std::tuple<std::uint64_t, std::uint64_t, SimTime, std::uint64_t>(
        pp.a_events, pp.b_events, end, pp.eng.windows_run());
  };
  EngineProfiler prof;
  EXPECT_EQ(run(&prof), run(nullptr));
  EXPECT_GT(prof.windows(), 0u);
}

TEST(EngineProfilerTest, DefaultLabelsAndEmptyReport) {
  EngineProfiler prof;
  EXPECT_EQ(prof.report().bottleneck_shard(), nullptr);
  prof.resize(3);
  EXPECT_EQ(prof.shard(2).label, "s2");
  prof.set_shard_label(2, "rack");
  prof.resize(2);  // only ever grows
  EXPECT_EQ(prof.shard_count(), 3u);
  EXPECT_EQ(prof.shard(2).label, "rack");
}

}  // namespace
}  // namespace smartmem::sim
