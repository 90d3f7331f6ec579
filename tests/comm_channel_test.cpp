// Channel<T>: fixed-latency delivery, bounded-queue policies, fault injection
// (loss / duplication / reordering / down-window), close() quiescence and
// the per-channel counters.
#include "comm/channel.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace smartmem::comm {
namespace {

struct Harness {
  sim::Simulator sim;
  Channel<int> chan;
  std::vector<std::pair<int, SimTime>> received;  // (msg, arrival time)

  explicit Harness(ChannelConfig cfg) : chan(sim, std::move(cfg)) {
    chan.open([this](const int& v) { received.emplace_back(v, sim.now()); });
  }
};

ChannelConfig base_config() {
  ChannelConfig cfg;
  cfg.name = "test";
  cfg.seed = 42;
  return cfg;
}

TEST(ChannelTest, FixedLatencyDeliversInOrder) {
  auto cfg = base_config();
  cfg.latency = 250 * kMicrosecond;
  Harness h(cfg);

  EXPECT_EQ(h.chan.send(1), SendResult::kQueued);
  h.sim.run_until(100 * kMicrosecond);
  EXPECT_EQ(h.chan.send(2), SendResult::kQueued);
  h.sim.run();

  ASSERT_EQ(h.received.size(), 2u);
  EXPECT_EQ(h.received[0], std::make_pair(1, 250 * kMicrosecond));
  EXPECT_EQ(h.received[1], std::make_pair(2, 350 * kMicrosecond));
  EXPECT_EQ(h.chan.stats().sent, 2u);
  EXPECT_EQ(h.chan.stats().delivered, 2u);
  EXPECT_EQ(h.chan.stats().latency.count(), 2u);
  EXPECT_DOUBLE_EQ(h.chan.stats().latency.mean(), 250.0);
  EXPECT_EQ(h.chan.stats().latency_hist.total(), 2u);
}

TEST(ChannelTest, TotalLossDropsEverything) {
  auto cfg = base_config();
  cfg.faults.loss_rate = 1.0;
  Harness h(cfg);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(h.chan.send(i), SendResult::kLost);
  h.sim.run();
  EXPECT_TRUE(h.received.empty());
  EXPECT_EQ(h.chan.stats().dropped_loss, 10u);
  EXPECT_EQ(h.chan.stats().sent, 0u);
}

TEST(ChannelTest, PartialLossConservesMessages) {
  auto cfg = base_config();
  cfg.faults.loss_rate = 0.4;
  Harness h(cfg);
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) h.chan.send(i);
  h.sim.run();
  const auto& s = h.chan.stats();
  EXPECT_EQ(s.sent + s.dropped_loss, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.delivered, s.sent);
  EXPECT_GT(s.dropped_loss, 0u);
  EXPECT_GT(s.delivered, 0u);
}

TEST(ChannelTest, DuplicationDeliversTwice) {
  auto cfg = base_config();
  cfg.faults.duplication_rate = 1.0;
  Harness h(cfg);
  h.chan.send(5);
  h.sim.run();
  ASSERT_EQ(h.received.size(), 2u);
  EXPECT_EQ(h.received[0].first, 5);
  EXPECT_EQ(h.received[1].first, 5);
  EXPECT_EQ(h.chan.stats().duplicated, 1u);
  EXPECT_EQ(h.chan.stats().sent, 1u);
  EXPECT_EQ(h.chan.stats().delivered, 2u);
}

TEST(ChannelTest, ReorderPenaltyDelaysDelivery) {
  auto cfg = base_config();
  cfg.latency = 100 * kMicrosecond;
  cfg.faults.reorder_rate = 1.0;
  cfg.faults.reorder_extra = 10 * kMillisecond;
  Harness h(cfg);

  h.chan.send(1);
  h.sim.run();
  ASSERT_EQ(h.received.size(), 1u);
  EXPECT_EQ(h.received[0].second, 10 * kMillisecond + 100 * kMicrosecond);
  EXPECT_EQ(h.chan.stats().reordered, 1u);
}

TEST(ChannelTest, ReorderingInvertsDeliveryOrder) {
  // Seeded so that some messages draw the penalty and others don't: with a
  // penalty far larger than the send spacing, any penalised message is
  // overtaken by its unpenalised successor.
  auto cfg = base_config();
  cfg.latency = 100 * kMicrosecond;
  cfg.faults.reorder_rate = 0.5;
  cfg.faults.reorder_extra = 50 * kMillisecond;
  Harness h(cfg);

  constexpr int kN = 64;
  for (int i = 0; i < kN; ++i) {
    h.sim.run_until(h.sim.now() + kMillisecond);
    h.chan.send(i);
  }
  h.sim.run();
  ASSERT_EQ(h.received.size(), static_cast<std::size_t>(kN));
  EXPECT_GT(h.chan.stats().reordered, 0u);
  EXPECT_LT(h.chan.stats().reordered, static_cast<std::uint64_t>(kN));
  bool out_of_order = false;
  for (std::size_t i = 1; i < h.received.size(); ++i) {
    if (h.received[i].first < h.received[i - 1].first) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
}

TEST(ChannelTest, DownWindowDropsSendsInsideIt) {
  auto cfg = base_config();
  cfg.latency = 10 * kMicrosecond;
  cfg.faults.down_from = kMillisecond;
  cfg.faults.down_until = 2 * kMillisecond;
  Harness h(cfg);

  EXPECT_EQ(h.chan.send(1), SendResult::kQueued);  // t=0: before the outage
  h.sim.run_until(kMillisecond);
  EXPECT_EQ(h.chan.send(2), SendResult::kDown);  // inside [1ms, 2ms)
  h.sim.run_until(2 * kMillisecond);
  EXPECT_EQ(h.chan.send(3), SendResult::kQueued);  // boundary: link back up
  h.sim.run();
  ASSERT_EQ(h.received.size(), 2u);
  EXPECT_EQ(h.received[0].first, 1);
  EXPECT_EQ(h.received[1].first, 3);
  EXPECT_EQ(h.chan.stats().dropped_down, 1u);
}

TEST(ChannelTest, BoundedQueueDropNewestRejectsOverflow) {
  auto cfg = base_config();
  cfg.latency = kMillisecond;
  cfg.queue_capacity = 2;
  cfg.queue_policy = QueuePolicy::kDropNewest;
  Harness h(cfg);

  EXPECT_EQ(h.chan.send(1), SendResult::kQueued);
  EXPECT_EQ(h.chan.send(2), SendResult::kQueued);
  EXPECT_EQ(h.chan.send(3), SendResult::kDroppedFull);
  EXPECT_EQ(h.chan.in_flight(), 2u);
  h.sim.run();
  ASSERT_EQ(h.received.size(), 2u);
  EXPECT_EQ(h.received[0].first, 1);
  EXPECT_EQ(h.received[1].first, 2);
  EXPECT_EQ(h.chan.stats().dropped_queue, 1u);
}

TEST(ChannelTest, BoundedQueueDropOldestCancelsHead) {
  auto cfg = base_config();
  cfg.latency = kMillisecond;
  cfg.queue_capacity = 2;
  cfg.queue_policy = QueuePolicy::kDropOldest;
  Harness h(cfg);

  EXPECT_EQ(h.chan.send(1), SendResult::kQueued);
  EXPECT_EQ(h.chan.send(2), SendResult::kQueued);
  EXPECT_EQ(h.chan.send(3), SendResult::kQueued);  // evicts message 1
  EXPECT_EQ(h.chan.in_flight(), 2u);
  h.sim.run();
  ASSERT_EQ(h.received.size(), 2u);
  EXPECT_EQ(h.received[0].first, 2);
  EXPECT_EQ(h.received[1].first, 3);
  EXPECT_EQ(h.chan.stats().dropped_queue, 1u);
  EXPECT_EQ(h.chan.stats().sent, 3u);
}

TEST(ChannelTest, CloseCancelsInFlightAndRefusesSends) {
  auto cfg = base_config();
  cfg.latency = kMillisecond;
  Harness h(cfg);

  h.chan.send(1);
  h.chan.send(2);
  EXPECT_EQ(h.chan.in_flight(), 2u);
  h.chan.close();
  EXPECT_EQ(h.chan.in_flight(), 0u);
  EXPECT_EQ(h.chan.send(3), SendResult::kClosed);
  h.sim.run();
  EXPECT_TRUE(h.received.empty());
  EXPECT_EQ(h.chan.stats().cancelled, 2u);
  EXPECT_EQ(h.chan.stats().delivered, 0u);
}

TEST(ChannelTest, ScaleTimesShrinksEveryTimeConstant) {
  ChannelConfig cfg;
  cfg.latency = 100 * kMicrosecond;
  cfg.faults.reorder_extra = 10 * kMillisecond;
  cfg.faults.down_from = kSecond;
  cfg.faults.down_until = 2 * kSecond;
  cfg.scale_times(0.5);
  EXPECT_EQ(cfg.latency, 50 * kMicrosecond);
  EXPECT_EQ(cfg.faults.reorder_extra, 5 * kMillisecond);
  EXPECT_EQ(cfg.faults.down_from, kSecond / 2);
  EXPECT_EQ(cfg.faults.down_until, kSecond);
}

TEST(ChannelTest, QueuePolicyStringRoundTrip) {
  for (QueuePolicy p : {QueuePolicy::kDropNewest, QueuePolicy::kDropOldest}) {
    QueuePolicy parsed{};
    ASSERT_TRUE(parse_queue_policy(to_string(p), parsed));
    EXPECT_EQ(parsed, p);
  }
  QueuePolicy unused{};
  EXPECT_FALSE(parse_queue_policy("drop-random", unused));
}

}  // namespace
}  // namespace smartmem::comm
