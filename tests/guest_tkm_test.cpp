// TKM relay: VIRQ samples travel up with the uplink latency; target vectors
// travel down and land in the hypervisor; stop() quiesces both channels.
#include "guest/tkm.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace smartmem::guest {
namespace {

comm::CommConfig comm_config(SimTime uplink_latency = 100 * kMicrosecond,
                             SimTime downlink_latency = 100 * kMicrosecond) {
  comm::CommConfig cfg;
  cfg.uplink.latency = uplink_latency;
  cfg.downlink.latency = downlink_latency;
  return cfg;
}

TEST(TkmTest, ForwardsStatsWithUplinkLatency) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 10;
  hcfg.sample_interval = kSecond;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);

  Tkm tkm(sim, hyp, comm_config(3 * kMillisecond));

  std::vector<std::pair<SimTime, SimTime>> deliveries;  // (sampled, delivered)
  tkm.start([&](const hyper::MemStats& stats) {
    deliveries.emplace_back(stats.when, sim.now());
  });
  sim.run_until(3 * kSecond + 10 * kMillisecond);
  ASSERT_EQ(deliveries.size(), 3u);
  for (const auto& [sampled, delivered] : deliveries) {
    EXPECT_EQ(delivered - sampled, 3 * kMillisecond);
  }
  EXPECT_EQ(tkm.stats_forwarded(), 3u);
  EXPECT_EQ(tkm.uplink().stats().sent, 3u);
  EXPECT_EQ(tkm.uplink().stats().delivered, 3u);
}

TEST(TkmTest, SubmitTargetsReachesHypervisorAfterDownlink) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 10;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);

  Tkm tkm(sim, hyp, comm_config(100 * kMicrosecond, 5 * kMillisecond));

  EXPECT_EQ(tkm.submit_targets({1, {{1, 7}}}), comm::SendResult::kQueued);
  EXPECT_EQ(hyp.target(1), kUnlimitedTarget) << "must not apply synchronously";
  sim.run_until(4 * kMillisecond);
  EXPECT_EQ(hyp.target(1), kUnlimitedTarget);
  sim.run_until(6 * kMillisecond);
  EXPECT_EQ(hyp.target(1), 7u);
  EXPECT_EQ(tkm.targets_forwarded(), 1u);
}

TEST(TkmTest, StopHaltsSampling) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 10;
  hyper::Hypervisor hyp(sim, hcfg);

  Tkm tkm(sim, hyp, comm_config());
  int count = 0;
  tkm.start([&](const hyper::MemStats&) { ++count; });
  sim.run_until(2 * kSecond + kMillisecond);
  tkm.stop();
  sim.run_until(10 * kSecond);
  EXPECT_EQ(count, 2);
}

// Regression: before the comm refactor, uplink/downlink events scheduled
// ahead of stop() still fired afterwards, delivering stats and applying
// targets behind the stopped TKM's back. Closing a channel must cancel
// its in-flight deliveries.
TEST(TkmTest, StopCancelsInFlightUplinkDeliveries) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 10;
  hcfg.sample_interval = kSecond;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);

  Tkm tkm(sim, hyp, comm_config(3 * kMillisecond));
  int delivered = 0;
  tkm.start([&](const hyper::MemStats&) { ++delivered; });

  // The VIRQ fires at t = 1 s; its uplink delivery is in flight until
  // t = 1 s + 3 ms. Stop exactly between the two.
  sim.run_until(kSecond);
  EXPECT_EQ(tkm.uplink().in_flight(), 1u);
  tkm.stop();
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(tkm.stats_forwarded(), 0u);
  EXPECT_EQ(tkm.uplink().stats().cancelled, 1u);
}

TEST(TkmTest, StopCancelsInFlightTargetDeliveries) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 10;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);

  Tkm tkm(sim, hyp, comm_config(100 * kMicrosecond, 5 * kMillisecond));
  EXPECT_EQ(tkm.submit_targets({1, {{1, 7}}}), comm::SendResult::kQueued);
  tkm.stop();
  sim.run();
  EXPECT_EQ(hyp.target(1), kUnlimitedTarget)
      << "in-flight target delivery must die with the channel";
  EXPECT_EQ(tkm.downlink().stats().cancelled, 1u);
  // A stopped TKM refuses further submissions outright.
  EXPECT_EQ(tkm.submit_targets({2, {{1, 8}}}), comm::SendResult::kClosed);
}

// Downlink delivery guard (CommConfig::ack_targets): a target vector lost
// on the wire is retransmitted after ack_timeout. The outage window models
// the loss deterministically — the first send at t=0 falls inside it, the
// retransmission at t=20ms lands after it lifts.
TEST(TkmTest, AckRetransmitsLostTargetVector) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 10;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);

  comm::CommConfig cfg = comm_config(100 * kMicrosecond, kMillisecond);
  cfg.ack_targets = true;
  cfg.ack_timeout = 20 * kMillisecond;
  cfg.downlink.faults.down_from = 0;
  cfg.downlink.faults.down_until = 10 * kMillisecond;
  Tkm tkm(sim, hyp, cfg);

  EXPECT_EQ(tkm.submit_targets({1, {{1, 7}}}), comm::SendResult::kDown);
  sim.run_until(19 * kMillisecond);
  EXPECT_EQ(hyp.target(1), kUnlimitedTarget);
  sim.run_until(50 * kMillisecond);
  EXPECT_EQ(hyp.target(1), 7u);
  EXPECT_EQ(tkm.target_retransmits(), 1u);
  EXPECT_EQ(tkm.downlink().stats().dropped_down, 1u);
  EXPECT_EQ(tkm.downlink().stats().delivered, 1u);

  // The delivery acked the pending vector: no further retransmissions.
  sim.run_until(500 * kMillisecond);
  EXPECT_EQ(tkm.target_retransmits(), 1u);
}

TEST(TkmTest, AckGivesUpAfterMaxRetries) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 10;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);

  comm::CommConfig cfg = comm_config(100 * kMicrosecond, kMillisecond);
  cfg.ack_targets = true;
  cfg.ack_timeout = 20 * kMillisecond;
  // Permanent outage: every transmission attempt is dropped.
  cfg.downlink.faults.down_from = 0;
  cfg.downlink.faults.down_until = 3600 * kSecond;
  Tkm tkm(sim, hyp, cfg);

  EXPECT_EQ(tkm.submit_targets({1, {{1, 7}}}), comm::SendResult::kDown);
  sim.run_until(kSecond);
  EXPECT_EQ(hyp.target(1), kUnlimitedTarget);
  EXPECT_EQ(tkm.target_retransmits(), Tkm::kAckMaxRetries);
  // The original plus every retry.
  EXPECT_EQ(tkm.downlink().stats().dropped_down, Tkm::kAckMaxRetries + 1);
}

TEST(TkmTest, AckIgnoresUnsequencedVectors) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 10;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);

  comm::CommConfig cfg = comm_config(100 * kMicrosecond, kMillisecond);
  cfg.ack_targets = true;
  cfg.ack_timeout = 20 * kMillisecond;
  cfg.downlink.faults.down_from = 0;
  cfg.downlink.faults.down_until = 3600 * kSecond;
  Tkm tkm(sim, hyp, cfg);

  // seq 0 means "unsequenced" (tests, manual pokes): no retry guard.
  EXPECT_EQ(tkm.submit_targets({0, {{1, 7}}}), comm::SendResult::kDown);
  sim.run_until(kSecond);
  EXPECT_EQ(tkm.target_retransmits(), 0u);
}

TEST(TkmTest, RestartAfterStopResumesForwarding) {
  sim::Simulator sim;
  hyper::HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 10;
  hcfg.sample_interval = kSecond;
  hyper::Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);

  Tkm tkm(sim, hyp, comm_config());
  int count = 0;
  tkm.start([&](const hyper::MemStats&) { ++count; });
  sim.run_until(kSecond + kMillisecond);
  EXPECT_EQ(count, 1);
  tkm.stop();
  tkm.start([&](const hyper::MemStats&) { ++count; });
  sim.run_until(3 * kSecond + 2 * kMillisecond);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(tkm.submit_targets({1, {{1, 4}}}), comm::SendResult::kQueued);
  sim.run_until(4 * kSecond);
  EXPECT_EQ(hyp.target(1), 4u);
}

}  // namespace
}  // namespace smartmem::guest
