// Phase structure of the two CloudSuite workload models, plus the script
// workload used by runner tests.
#include <gtest/gtest.h>

#include <map>

#include "workloads/graph_analytics.hpp"
#include "workloads/in_memory_analytics.hpp"
#include "workloads/script_workload.hpp"

namespace smartmem::workloads {
namespace {

// Collects all ops of a terminating workload.
std::vector<MemOp> drain(Workload& w, int limit = 100000) {
  std::vector<MemOp> ops;
  while (auto op = w.next()) {
    ops.push_back(*op);
    if (--limit == 0) ADD_FAILURE() << "workload did not terminate";
    if (limit == 0) break;
  }
  return ops;
}

InMemoryAnalyticsConfig ima_tiny() {
  InMemoryAnalyticsConfig cfg;
  cfg.dataset_pages = 8;
  cfg.working_set_pages = 32;
  cfg.iterations = 3;
  return cfg;
}

TEST(InMemoryAnalyticsTest, RejectsBadConfig) {
  InMemoryAnalyticsConfig cfg;
  EXPECT_THROW(InMemoryAnalytics{cfg}, std::invalid_argument);
}

TEST(InMemoryAnalyticsTest, PhaseSequenceSingleRun) {
  InMemoryAnalytics w(ima_tiny());
  const auto ops = drain(w);

  ASSERT_GE(ops.size(), 5u);
  EXPECT_EQ(ops[0].kind, MemOp::Kind::kRegisterFile);
  EXPECT_EQ(ops[1].kind, MemOp::Kind::kMarker);
  EXPECT_EQ(ops[1].label, "run:1:start");
  EXPECT_EQ(ops[2].kind, MemOp::Kind::kFileRead);
  EXPECT_EQ(ops[2].touches, 8u);
  EXPECT_EQ(ops[3].kind, MemOp::Kind::kAllocRegion);
  EXPECT_EQ(ops[3].pages, 32u);
  // Init = sequential write of the whole model.
  EXPECT_EQ(ops[4].kind, MemOp::Kind::kTouchWindow);
  EXPECT_TRUE(ops[4].write);
  EXPECT_EQ(ops[4].touches, 32u);

  // 3 iterations of (scan, update), then done marker, then free.
  int scans = 0, updates = 0;
  bool done_marker = false, freed = false;
  for (std::size_t i = 5; i < ops.size(); ++i) {
    if (ops[i].kind == MemOp::Kind::kTouchWindow) {
      (ops[i].pattern == AccessPattern::kZipf ? updates : scans)++;
    }
    if (ops[i].kind == MemOp::Kind::kMarker && ops[i].label == "run:1:done") {
      done_marker = true;
    }
    if (ops[i].kind == MemOp::Kind::kFreeRegion) freed = true;
  }
  EXPECT_EQ(scans, 3);
  EXPECT_EQ(updates, 3);
  EXPECT_TRUE(done_marker);
  EXPECT_TRUE(freed);
}

TEST(InMemoryAnalyticsTest, TwoRunsWithSleepBetween) {
  auto cfg = ima_tiny();
  cfg.runs = 2;
  cfg.sleep_between_runs = 5 * kSecond;
  InMemoryAnalytics w(cfg);
  const auto ops = drain(w);

  int sleeps = 0, run_markers = 0, frees = 0, file_reads = 0;
  for (const auto& op : ops) {
    if (op.kind == MemOp::Kind::kSleep) {
      ++sleeps;
      EXPECT_EQ(op.duration, 5 * kSecond);
    }
    if (op.kind == MemOp::Kind::kMarker &&
        op.label.find(":done") != std::string::npos) {
      ++run_markers;
    }
    if (op.kind == MemOp::Kind::kFreeRegion) ++frees;
    if (op.kind == MemOp::Kind::kFileRead) ++file_reads;
  }
  EXPECT_EQ(sleeps, 1);
  EXPECT_EQ(run_markers, 2);
  EXPECT_EQ(frees, 2);
  EXPECT_EQ(file_reads, 2);  // each run re-reads its dataset
}

TEST(InMemoryAnalyticsTest, ScanWritePeriodAlternatesWrites) {
  auto cfg = ima_tiny();
  cfg.iterations = 4;
  InMemoryAnalytics w(cfg);
  std::vector<bool> scan_writes;
  for (const auto& op : drain(w)) {
    if (op.kind == MemOp::Kind::kTouchWindow &&
        op.pattern == AccessPattern::kSequential && op.touches != 32u) {
      scan_writes.push_back(op.write);
    }
  }
  ASSERT_EQ(scan_writes.size(), 4u);
  EXPECT_FALSE(scan_writes[0]);
  EXPECT_TRUE(scan_writes[1]);
  EXPECT_FALSE(scan_writes[2]);
  EXPECT_TRUE(scan_writes[3]);
}

GraphAnalyticsConfig ga_tiny() {
  GraphAnalyticsConfig cfg;
  cfg.edge_file_pages = 8;
  cfg.graph_pages = 48;
  cfg.vertex_pages = 8;
  cfg.iterations = 2;
  return cfg;
}

TEST(GraphAnalyticsTest, RejectsBadConfig) {
  GraphAnalyticsConfig cfg;
  EXPECT_THROW(GraphAnalytics{cfg}, std::invalid_argument);
}

TEST(GraphAnalyticsTest, BuildPhaseComesBeforeIterations) {
  GraphAnalytics w(ga_tiny());
  const auto ops = drain(w);
  std::size_t build_done = 0, first_iter = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == MemOp::Kind::kMarker && ops[i].label == "build:done") {
      build_done = i;
    }
    if (ops[i].kind == MemOp::Kind::kMarker &&
        ops[i].label == "iter:1:done" && first_iter == 0) {
      first_iter = i;
    }
  }
  EXPECT_GT(build_done, 0u);
  EXPECT_GT(first_iter, build_done);
}

TEST(GraphAnalyticsTest, BuildUsesFastTouches) {
  auto cfg = ga_tiny();
  cfg.build_touch_compute = 100;
  cfg.iter_touch_compute = 9999;
  GraphAnalytics w(cfg);
  bool saw_build_touch = false;
  for (const auto& op : drain(w)) {
    if (op.kind == MemOp::Kind::kTouchWindow && op.per_touch_compute == 100 &&
        op.touches == 48u) {
      saw_build_touch = true;
      EXPECT_TRUE(op.write);
    }
  }
  EXPECT_TRUE(saw_build_touch);
}

TEST(GraphAnalyticsTest, ScatterIsZipfOverVertices) {
  GraphAnalytics w(ga_tiny());
  int scatters = 0;
  for (const auto& op : drain(w)) {
    if (op.kind == MemOp::Kind::kTouchWindow &&
        op.pattern == AccessPattern::kZipf) {
      ++scatters;
      EXPECT_EQ(op.window_pages, 8u);
      EXPECT_EQ(op.touches, 16u);  // two updates per vertex page
      EXPECT_TRUE(op.write);
    }
  }
  EXPECT_EQ(scatters, 2);
}

TEST(GraphAnalyticsTest, EverySecondSweepWrites) {
  auto cfg = ga_tiny();
  cfg.iterations = 4;
  cfg.build_touch_compute = 100;
  cfg.iter_touch_compute = 9999;
  GraphAnalytics w(cfg);
  std::vector<bool> sweep_writes;
  for (const auto& op : drain(w)) {
    if (op.kind == MemOp::Kind::kTouchWindow &&
        op.pattern == AccessPattern::kSequential &&
        op.per_touch_compute == 9999) {
      sweep_writes.push_back(op.write);
    }
  }
  EXPECT_EQ(sweep_writes, (std::vector<bool>{false, true, false, true}));
}

TEST(GraphAnalyticsTest, FreesBothRegionsAtEnd) {
  GraphAnalytics w(ga_tiny());
  int frees = 0;
  for (const auto& op : drain(w)) {
    if (op.kind == MemOp::Kind::kFreeRegion) ++frees;
  }
  EXPECT_EQ(frees, 2);
}

TEST(ScriptWorkloadTest, PlaysOpsInOrderWithRepeats) {
  std::vector<MemOp> ops = {MemOp::marker("a"), MemOp::marker("b")};
  ScriptWorkload w(ops, 2);
  std::vector<std::string> seen;
  while (auto op = w.next()) seen.push_back(op->label);
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(ScriptWorkloadTest, EmptyScriptFinishesImmediately) {
  ScriptWorkload w({}, 0);
  EXPECT_FALSE(w.next().has_value());
}

}  // namespace
}  // namespace smartmem::workloads
