// Usemem must follow the paper's description: 128MB chunks, full linear
// traversal after each growth step, cap at 1GB, then loop until stopped.
#include "workloads/usemem.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"

namespace smartmem::workloads {
namespace {

UsememConfig tiny() {
  UsememConfig cfg;
  cfg.start_pages = 4;
  cfg.step_pages = 4;
  cfg.max_pages = 12;
  return cfg;
}

TEST(UsememTest, RejectsBadGeometry) {
  UsememConfig cfg;
  EXPECT_THROW(Usemem{cfg}, std::invalid_argument);
  cfg.start_pages = 10;
  cfg.step_pages = 1;
  cfg.max_pages = 5;  // max < start
  EXPECT_THROW(Usemem{cfg}, std::invalid_argument);
}

TEST(UsememTest, FirstStageAllocsThenMarksThenTraverses) {
  Usemem u(tiny());
  auto op = u.next();
  ASSERT_TRUE(op);
  EXPECT_EQ(op->kind, MemOp::Kind::kAllocRegion);
  EXPECT_EQ(op->pages, 4u);

  op = u.next();
  ASSERT_TRUE(op);
  EXPECT_EQ(op->kind, MemOp::Kind::kMarker);
  EXPECT_EQ(op->label, "alloc:0");  // 4 pages = 16 KiB ~ 0 MiB at this size

  op = u.next();
  ASSERT_TRUE(op);
  EXPECT_EQ(op->kind, MemOp::Kind::kTouchWindow);
  EXPECT_EQ(op->region, 0u);
  EXPECT_EQ(op->touches, 4u);
  EXPECT_TRUE(op->write);
  EXPECT_EQ(op->pattern, AccessPattern::kSequential);
}

TEST(UsememTest, TraversalCoversAllRegionsBeforeGrowing) {
  UsememConfig cfg;
  cfg.start_pages = pages_from_mib(128);
  cfg.step_pages = pages_from_mib(128);
  cfg.max_pages = pages_from_mib(384);
  Usemem u(cfg);

  std::vector<std::string> markers;
  std::size_t allocs = 0;
  PageCount touched_before_second_alloc = 0;
  bool second_alloc_seen = false;
  for (int i = 0; i < 40 && !second_alloc_seen; ++i) {
    auto op = u.next();
    ASSERT_TRUE(op);
    if (op->kind == MemOp::Kind::kAllocRegion && ++allocs == 2) {
      second_alloc_seen = true;
    }
    if (op->kind == MemOp::Kind::kTouchWindow && allocs == 1) {
      touched_before_second_alloc += op->touches;
    }
    if (op->kind == MemOp::Kind::kMarker) markers.push_back(op->label);
  }
  ASSERT_TRUE(second_alloc_seen);
  EXPECT_EQ(touched_before_second_alloc, pages_from_mib(128));
  ASSERT_GE(markers.size(), 2u);
  EXPECT_EQ(markers[0], "alloc:128");
  EXPECT_EQ(markers[1], "size-done:128");
}

TEST(UsememTest, GrowsInStepsUpToMax) {
  UsememConfig cfg;
  cfg.start_pages = pages_from_mib(128);
  cfg.step_pages = pages_from_mib(128);
  cfg.max_pages = pages_from_mib(512);
  cfg.passes_at_max = 1;
  Usemem u(cfg);

  std::vector<std::string> alloc_markers;
  while (auto op = u.next()) {
    if (op->kind == MemOp::Kind::kMarker &&
        op->label.rfind("alloc:", 0) == 0) {
      alloc_markers.push_back(op->label);
    }
  }
  EXPECT_EQ(alloc_markers,
            (std::vector<std::string>{"alloc:128", "alloc:256", "alloc:384",
                                      "alloc:512"}));
}

TEST(UsememTest, BoundedPassesTerminate) {
  UsememConfig cfg = tiny();
  cfg.passes_at_max = 2;
  Usemem u(cfg);
  int pass_markers = 0;
  int ops = 0;
  while (auto op = u.next()) {
    ASSERT_LT(++ops, 1000) << "workload must terminate";
    if (op->kind == MemOp::Kind::kMarker && op->label.rfind("pass:", 0) == 0) {
      ++pass_markers;
    }
  }
  EXPECT_GT(pass_markers, 0);
}

TEST(UsememTest, UnboundedRunsForever) {
  Usemem u(tiny());  // passes_at_max = 0
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(u.next().has_value());
  }
}

}  // namespace
}  // namespace smartmem::workloads
