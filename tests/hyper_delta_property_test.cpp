// Property tests for the DESIGN §12 delta codecs: a receiver that folds
// delta-encoded control messages must be byte-equal to one fed the full
// vectors — exactly when no messages are lost, and within one resync
// cadence of recovery when the channel loses, reorders or duplicates.
// A broken chain may only ever *delay* the view (drop without applying);
// it must never fold a delta onto the wrong base.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "hyper/delta.hpp"
#include "hyper/hypervisor.hpp"
#include "hyper/memstats.hpp"

namespace smartmem::hyper {
namespace {

constexpr std::size_t kVms = 12;

/// Header-and-entries equality, ignoring the delta framing fields (a
/// materialized view never carries them).
void expect_stats_equal(const MemStats& got, const MemStats& want) {
  ASSERT_EQ(got.seq, want.seq);
  ASSERT_EQ(got.total_tmem, want.total_tmem);
  ASSERT_EQ(got.free_tmem, want.free_tmem);
  ASSERT_EQ(got.vm_count, want.vm_count);
  ASSERT_EQ(got.vm.size(), want.vm.size());
  for (std::size_t i = 0; i < want.vm.size(); ++i) {
    ASSERT_EQ(got.vm[i], want.vm[i]) << "entry " << i;
  }
}

/// One round of sender-side churn: a small random subset of VMs moves its
/// counters, everything else holds still — the fleet-shaped input the
/// codec exists for.
void churn(Rng& rng, MemStats& s) {
  const std::size_t dirty = 1 + rng.uniform(3);
  for (std::size_t k = 0; k < dirty; ++k) {
    auto& vm = s.vm[rng.uniform(s.vm.size())];
    vm.puts_total += rng.uniform(100);
    vm.puts_succ += rng.uniform(50);
    vm.tmem_used = rng.uniform(1000);
  }
  s.free_tmem = rng.uniform(s.total_tmem + 1);
}

MemStats initial_stats() {
  MemStats s;
  s.total_tmem = 1u << 16;
  s.free_tmem = 1u << 15;
  s.vm_count = kVms;
  for (std::size_t i = 0; i < kVms; ++i) {
    VmMemStats vm;
    vm.vm_id = static_cast<VmId>(i + 1);
    vm.tmem_used = 100 * (i + 1);
    s.vm.push_back(vm);
  }
  return s;
}

TEST(StatsDeltaProperty, LosslessChannelIsByteEqualEveryStep) {
  comm::DeltaConfig cfg;
  cfg.resync_every = 8;
  StatsDeltaEncoder enc(cfg);
  StatsDeltaView view;
  Rng rng(7);

  MemStats s = initial_stats();
  std::uint64_t delta_sends = 0;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    churn(rng, s);
    s.seq = seq;
    const MemStats msg = enc.encode(s);
    if (msg.delta) {
      ++delta_sends;
      // The whole point: a delta must be smaller than the full vector.
      ASSERT_LT(wire_size(msg), wire_size(s));
    }
    ASSERT_TRUE(view.apply(msg));
    expect_stats_equal(view.view(), s);
  }
  EXPECT_EQ(view.chain_breaks(), 0u);
  EXPECT_GT(delta_sends, 0u);
  // Resync cadence: every 8th send is full (and the first).
  EXPECT_EQ(enc.full_sends(), 200u / 8);
}

TEST(StatsDeltaProperty, DefaultCadenceSendsEverySnapshotFull) {
  // resync_every = 1 is the full-vector control plane: every message is
  // the sender's snapshot itself, unframed, on both directions.
  StatsDeltaEncoder stats_enc(comm::DeltaConfig{});
  TargetsDeltaEncoder targets_enc(comm::DeltaConfig{});
  Rng rng(3);
  MemStats s = initial_stats();
  MmOut targets = {{1, 100}, {2, 200}};
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    churn(rng, s);
    s.seq = seq;
    const MemStats msg = stats_enc.encode(s);
    ASSERT_FALSE(msg.delta);
    ASSERT_EQ(msg.base_seq, 0u);
    expect_stats_equal(msg, s);
    ASSERT_EQ(wire_size(msg), wire_size(s));

    targets[seq % 2].mm_target += 1;
    const TargetsMsg down = targets_enc.encode(seq, targets, 0);
    ASSERT_FALSE(down.delta);
    ASSERT_EQ(down.targets, targets);
  }
  EXPECT_EQ(stats_enc.full_sends(), stats_enc.sends());
  EXPECT_EQ(targets_enc.full_sends(), targets_enc.sends());
}

TEST(StatsDeltaProperty, DeltaViewMatchesFullVectorView) {
  comm::DeltaConfig delta_cfg;
  delta_cfg.resync_every = 8;
  StatsDeltaEncoder enc(delta_cfg);
  StatsDeltaView delta_view;
  StatsDeltaView full_view;
  Rng rng(11);

  MemStats s = initial_stats();
  for (std::uint64_t seq = 1; seq <= 150; ++seq) {
    churn(rng, s);
    s.seq = seq;
    ASSERT_TRUE(delta_view.apply(enc.encode(s)));
    ASSERT_TRUE(full_view.apply(s));
    expect_stats_equal(delta_view.view(), full_view.view());
  }
}

TEST(StatsDeltaProperty, LossReorderDuplicationNeverDiverges) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    comm::DeltaConfig cfg;
    cfg.resync_every = 6;
    StatsDeltaEncoder enc(cfg);
    StatsDeltaView view;
    Rng rng(seed);

    MemStats s = initial_stats();
    std::vector<MemStats> wire;          // encoded messages, send order
    std::map<std::uint64_t, MemStats> truth;  // seq -> sender snapshot
    for (std::uint64_t seq = 1; seq <= 120; ++seq) {
      churn(rng, s);
      s.seq = seq;
      wire.push_back(enc.encode(s));
      truth[seq] = s;
    }

    // Faulted delivery: drop ~20%, duplicate ~10%, swap adjacent ~10%.
    std::vector<MemStats> delivered;
    for (std::size_t i = 0; i < wire.size(); ++i) {
      const std::uint64_t roll = rng.uniform(10);
      if (roll < 2) continue;  // lost
      if (roll < 3 && i + 1 < wire.size()) {  // reordered pair
        delivered.push_back(wire[i + 1]);
        delivered.push_back(wire[i]);
        ++i;
        continue;
      }
      delivered.push_back(wire[i]);
      if (roll < 4) delivered.push_back(wire[i]);  // duplicated
    }

    std::uint64_t applied = 0;
    for (const MemStats& msg : delivered) {
      if (view.apply(msg)) {
        ++applied;
        // THE invariant: an applied message always reproduces the sender's
        // snapshot at that seq, faults or no faults. Loss shows up as
        // "fewer applies", never as a diverged view.
        expect_stats_equal(view.view(), truth.at(view.last_applied_seq()));
      }
    }
    // Resyncs guarantee progress: even under 20% loss some messages land.
    EXPECT_GT(applied, 0u) << "seed " << seed;

    // Recovery: once the channel heals, the view converges within one
    // resync cadence.
    for (std::uint64_t seq = 121; seq <= 121 + cfg.resync_every; ++seq) {
      churn(rng, s);
      s.seq = seq;
      view.apply(enc.encode(s));
      truth[seq] = s;
    }
    expect_stats_equal(view.view(), truth.at(121 + cfg.resync_every));
  }
}

TEST(TargetsDeltaProperty, HypervisorFoldMatchesTruthUnderFaults) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    comm::DeltaConfig cfg;
    cfg.resync_every = 6;
    TargetsDeltaEncoder enc(cfg);
    Rng rng(100 + seed);

    sim::Simulator sim;
    HypervisorConfig hcfg;
    hcfg.total_tmem_pages = 1u << 16;
    Hypervisor hyp(sim, hcfg);
    MmOut full;
    for (VmId vm = 1; vm <= 8; ++vm) {
      hyp.register_vm(vm);
      full.push_back({vm, 1000});
    }

    std::vector<TargetsMsg> wire;
    std::map<std::uint64_t, MmOut> truth;
    for (std::uint64_t seq = 1; seq <= 100; ++seq) {
      const std::size_t dirty = 1 + rng.uniform(2);
      for (std::size_t k = 0; k < dirty; ++k) {
        full[rng.uniform(full.size())].mm_target = rng.uniform(1u << 16);
      }
      wire.push_back(enc.encode(seq, full, 0));
      truth[seq] = full;
    }

    // The hypervisor's materialized targets must equal the MM's full
    // vector at whatever seq the hypervisor last applied.
    auto deliver_and_check = [&](const TargetsMsg& msg) {
      hyp.apply_targets(msg);
      if (hyp.last_target_seq() == 0) return;
      const MmOut& want = truth.at(hyp.last_target_seq());
      for (const MmTarget& t : want) {
        ASSERT_EQ(hyp.target(t.vm_id), t.mm_target)
            << "seed " << seed << " seq " << hyp.last_target_seq();
      }
    };
    for (std::size_t i = 0; i < wire.size(); ++i) {
      const std::uint64_t roll = rng.uniform(10);
      if (roll < 2) continue;  // lost
      if (roll < 3 && i + 1 < wire.size()) {  // reordered pair
        deliver_and_check(wire[i + 1]);
        deliver_and_check(wire[i]);
        ++i;
        continue;
      }
      deliver_and_check(wire[i]);
      if (roll < 4) deliver_and_check(wire[i]);  // duplicated
    }

    // Heal the channel: within one resync cadence the hypervisor holds the
    // newest vector.
    for (std::uint64_t seq = 101; seq <= 101 + cfg.resync_every; ++seq) {
      full[rng.uniform(full.size())].mm_target = rng.uniform(1u << 16);
      hyp.apply_targets(enc.encode(seq, full, 0));
    }
    EXPECT_EQ(hyp.last_target_seq(), 101 + cfg.resync_every);
    for (const MmTarget& t : full) {
      EXPECT_EQ(hyp.target(t.vm_id), t.mm_target) << "seed " << seed;
    }
  }
}

TEST(TargetsDeltaProperty, ChainBreakDropsWithoutAdvancingSeq) {
  comm::DeltaConfig cfg;
  cfg.resync_every = 100;  // no resync inside the test window
  TargetsDeltaEncoder enc(cfg);

  sim::Simulator sim;
  HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 1u << 12;
  Hypervisor hyp(sim, hcfg);
  hyp.register_vm(1);
  hyp.register_vm(2);

  MmOut full = {{1, 100}, {2, 100}};
  hyp.apply_targets(enc.encode(1, full, 0));  // first send: full
  ASSERT_EQ(hyp.last_target_seq(), 1u);

  full[0].mm_target = 200;
  const TargetsMsg lost = enc.encode(2, full, 0);  // delta, never delivered
  ASSERT_TRUE(lost.delta);

  full[1].mm_target = 300;
  const TargetsMsg after = enc.encode(3, full, 0);  // chains onto seq 2
  ASSERT_TRUE(after.delta);
  hyp.apply_targets(after);

  // Dropped whole: no partial fold, no seq advance, counted as a break.
  EXPECT_EQ(hyp.last_target_seq(), 1u);
  EXPECT_EQ(hyp.target(1), 100u);
  EXPECT_EQ(hyp.target(2), 100u);
  EXPECT_EQ(hyp.target_chain_breaks(), 1u);
}

TEST(QuotaDeltaProperty, SelfContainedQuotasConvergeToNewestSeq) {
  sim::Simulator sim;
  HypervisorConfig hcfg;
  hcfg.total_tmem_pages = 1u << 12;
  Hypervisor hyp(sim, hcfg);
  Rng rng(5);

  // NodeQuotaMsg is self-contained and idempotent: any delivery order with
  // any loss/duplication leaves the hypervisor at the newest-seq quota it
  // saw — per-node seq gaps (delta suppression upstream) are safe.
  std::vector<std::pair<std::uint64_t, PageCount>> msgs;
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    msgs.push_back({seq, 100 + seq});
  }
  std::uint64_t max_delivered = 0;
  for (std::size_t n = 0; n < 200; ++n) {
    const auto& [seq, quota] = msgs[rng.uniform(msgs.size())];
    hyp.apply_node_quota(seq, quota);
    max_delivered = std::max(max_delivered, seq);
    EXPECT_EQ(hyp.last_quota_seq(), max_delivered);
    EXPECT_EQ(hyp.node_quota(), 100 + max_delivered);
  }
}

}  // namespace
}  // namespace smartmem::hyper
