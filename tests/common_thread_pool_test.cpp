// parallel_for_each contract: every index runs exactly once, the lowest
// failing index's exception is rethrown after all indices finish, and the
// serial path runs inline in index order; resolve_jobs maps 0 to the
// hardware thread count.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace smartmem {
namespace {

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(0), hw == 0 ? 1u : hw);
  EXPECT_EQ(resolve_jobs(3), 3u);
}

TEST(ThreadPoolTest, ForEachIndexCoversEverySlotOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for_each(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ForEachIndexRethrowsLowestFailingIndex) {
  std::atomic<int> completed{0};
  try {
    parallel_for_each(4, 64, [&](std::size_t i) {
      if (i == 5 || i == 40) {
        throw std::out_of_range("idx " + std::to_string(i));
      }
      ++completed;
    });
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "idx 5");  // lowest index wins, deterministically
  }
  // The rethrow happens only after the barrier: all healthy indices ran.
  EXPECT_EQ(completed.load(), 62);
}

TEST(ThreadPoolTest, SerialParallelForEachRunsInIndexOrderInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for_each(1, 16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expect(16);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPoolTest, ParallelForEachFillsPreSizedSlots) {
  std::vector<std::uint64_t> slots(100, 0);
  parallel_for_each(4, slots.size(), [&](std::size_t i) {
    slots[i] = 1000 + i;  // deterministic slot indexed by i, not completion
  });
  for (std::size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i], 1000 + i);
}

}  // namespace
}  // namespace smartmem
