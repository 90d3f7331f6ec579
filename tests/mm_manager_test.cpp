// MemoryManager: policy dispatch, the paper's change-suppressing
// send_to_hypervisor behaviour, and the sequenced stale-sample rejection
// added with the comm layer.
#include "mm/manager.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mm/static_policy.hpp"

namespace smartmem::mm {
namespace {

hyper::MemStats make_stats(PageCount total, std::uint32_t vms) {
  hyper::MemStats stats;
  stats.total_tmem = total;
  stats.vm_count = vms;
  for (VmId id = 1; id <= vms; ++id) {
    hyper::VmMemStats v;
    v.vm_id = id;
    stats.vm.push_back(v);
  }
  return stats;
}

/// Records the per-VM failed puts of every sample it decides on and asks
/// for no targets.
class RecordingPolicy final : public Policy {
 public:
  std::string name() const override { return "recording"; }
  hyper::MmOut compute(const hyper::MemStats& stats,
                       const PolicyContext&) override {
    std::vector<std::uint64_t>& failed = failed_puts.emplace_back();
    for (const auto& vm : stats.vm) {
      failed.push_back(vm.puts_total - vm.puts_succ);
    }
    return {};
  }
  std::vector<std::vector<std::uint64_t>> failed_puts;
};

TEST(ManagerTest, NullPolicyRejected) {
  EXPECT_THROW(MemoryManager(nullptr, 100), std::invalid_argument);
}

TEST(ManagerTest, SendsTargetsOnFirstSample) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  std::vector<hyper::TargetsMsg> sent;
  mm.set_sender([&](const hyper::TargetsMsg& msg) { sent.push_back(msg); });
  mm.on_stats(make_stats(300, 3));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].targets.size(), 3u);
  EXPECT_EQ(sent[0].targets[0].mm_target, 100u);
  EXPECT_EQ(sent[0].seq, 1u);
}

TEST(ManagerTest, SuppressesUnchangedTargets) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  int sends = 0;
  mm.set_sender([&](const hyper::TargetsMsg&) { ++sends; });
  for (int i = 0; i < 5; ++i) mm.on_stats(make_stats(300, 3));
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(mm.targets_sent(), 1u);
  EXPECT_EQ(mm.sends_suppressed(), 4u);
  EXPECT_EQ(mm.samples_seen(), 5u);
}

TEST(ManagerTest, ResendsWhenTargetsChange) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  int sends = 0;
  mm.set_sender([&](const hyper::TargetsMsg&) { ++sends; });
  mm.on_stats(make_stats(300, 3));
  mm.on_stats(make_stats(300, 3));
  mm.on_stats(make_stats(300, 2));  // VM destroyed: shares change
  EXPECT_EQ(sends, 2);
}

// suppress_unchanged compares against the *last transmitted* vector, not a
// set of ever-sent vectors: after an intervening change, returning to an
// earlier vector must transmit again (the hypervisor's state followed the
// intervening change, so "unchanged vs. two sends ago" is still a change).
TEST(ManagerTest, ResendsEarlierVectorAfterInterveningChange) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  std::vector<hyper::TargetsMsg> sent;
  mm.set_sender([&](const hyper::TargetsMsg& msg) { sent.push_back(msg); });
  mm.on_stats(make_stats(300, 3));  // equal shares of 100 -> send #1
  mm.on_stats(make_stats(300, 2));  // shares of 150       -> send #2
  mm.on_stats(make_stats(300, 3));  // back to 100         -> must send #3
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(sent[0].targets, sent[2].targets);
  EXPECT_EQ(mm.sends_suppressed(), 0u);
  // Sequence numbers keep climbing across the re-send.
  EXPECT_EQ(sent[2].seq, 3u);
}

TEST(ManagerTest, SuppressionCanBeDisabled) {
  ManagerConfig cfg;
  cfg.suppress_unchanged = false;
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300, cfg);
  int sends = 0;
  mm.set_sender([&](const hyper::TargetsMsg&) { ++sends; });
  for (int i = 0; i < 3; ++i) mm.on_stats(make_stats(300, 3));
  EXPECT_EQ(sends, 3);
}

TEST(ManagerTest, PolicyDecidesOnEachDeliveredSample) {
  auto policy = std::make_unique<RecordingPolicy>();
  const RecordingPolicy* recorder = policy.get();
  MemoryManager mm(std::move(policy), 300);
  auto stats = make_stats(300, 2);
  stats.vm[0].puts_total = 7;
  stats.vm[0].puts_succ = 4;
  mm.on_stats(stats);
  EXPECT_EQ(mm.samples_seen(), 1u);
  ASSERT_EQ(recorder->failed_puts.size(), 1u);
  EXPECT_EQ(recorder->failed_puts[0], (std::vector<std::uint64_t>{3, 0}));
  EXPECT_EQ(mm.targets_sent(), 0u) << "an empty vector is never sent";
}

TEST(ManagerTest, LastSentIsExposed) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  mm.set_sender([](const hyper::TargetsMsg&) {});
  EXPECT_FALSE(mm.last_sent().has_value());
  mm.on_stats(make_stats(300, 3));
  ASSERT_TRUE(mm.last_sent().has_value());
  EXPECT_EQ(mm.last_sent()->size(), 3u);
}

// A faulty uplink can duplicate or reorder memstats deliveries; the MM must
// decide on each interval at most once and never step backwards.
TEST(ManagerTest, DropsDuplicateAndOutOfOrderSamples) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  mm.set_sender([](const hyper::TargetsMsg&) {});

  auto s1 = make_stats(300, 1);
  s1.seq = 1;
  auto s2 = make_stats(300, 1);
  s2.seq = 2;
  mm.on_stats(s1);
  mm.on_stats(s2);
  mm.on_stats(s2);  // duplicated delivery
  mm.on_stats(s1);  // reordered (stale) delivery
  EXPECT_EQ(mm.samples_seen(), 2u);
  EXPECT_EQ(mm.stale_samples_dropped(), 2u);
  EXPECT_EQ(mm.last_sample_seq(), 2u);

  auto s3 = make_stats(300, 1);
  s3.seq = 3;
  mm.on_stats(s3);
  EXPECT_EQ(mm.samples_seen(), 3u);
}

// Unsequenced samples (seq 0, e.g. hand-built snapshots in tests and tools)
// bypass the ordering check entirely.
TEST(ManagerTest, UnsequencedSamplesAlwaysAccepted) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  mm.set_sender([](const hyper::TargetsMsg&) {});
  for (int i = 0; i < 3; ++i) mm.on_stats(make_stats(300, 1));
  EXPECT_EQ(mm.samples_seen(), 3u);
  EXPECT_EQ(mm.stale_samples_dropped(), 0u);
}

}  // namespace
}  // namespace smartmem::mm
