// Tmem Kernel Module (TKM) — Section III-C of the paper.
//
// In the real system the TKM lives in the privileged domain's kernel: the
// hypervisor raises a VIRQ once per sampling interval, the TKM relays the
// memstats payload to the user-space Memory Manager over a netlink socket,
// and ships the MM's target vector back down through custom hypercalls.
//
// Here the TKM owns the two comm::Channel hops that model that path — the
// stats uplink (VIRQ + netlink) and the target downlink (netlink + custom
// hypercall) — so that policy decisions always act on slightly stale data,
// exactly the staleness the paper's reconf-static discussion calls out
// ("the latency ... is roughly one second"). Latency distributions, fault
// injection and bounded-queue policies all come from comm::CommConfig;
// per-hop delivery counters and latency histograms are exposed through the
// channels themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "comm/channel.hpp"
#include "common/types.hpp"
#include "hyper/delta.hpp"
#include "hyper/hypervisor.hpp"
#include "sim/simulator.hpp"

namespace smartmem::guest {

class Tkm {
 public:
  /// Retransmissions of one target vector before the ack guard gives up.
  static constexpr std::uint32_t kAckMaxRetries = 3;

  /// `stats_sink` is the user-space (MM) receiver of memstats samples.
  using StatsSink = std::function<void(const hyper::MemStats&)>;

  Tkm(sim::Simulator& sim, hyper::Hypervisor& hypervisor,
      comm::CommConfig config);

  /// Hooks the hypervisor VIRQ and starts forwarding samples to `sink`.
  /// Re-opens both channels if a previous stop() closed them.
  void start(StatsSink sink);

  /// Stops the hypervisor sampler and closes both channels; in-flight
  /// deliveries (stats already relayed, targets already submitted) are
  /// cancelled, so nothing arrives after stop() returns.
  void stop();

  /// Called by the MM: forwards a sequenced target vector to the hypervisor
  /// over the downlink (the custom hypercall of Section III-C). Returns the
  /// channel's verdict — kLost/kDroppedFull/... under fault injection.
  /// With CommConfig::ack_targets the message is also remembered and
  /// retransmitted after ack_timeout until its (or a newer) sequence is
  /// observed delivering, up to kAckMaxRetries times.
  comm::SendResult submit_targets(const hyper::TargetsMsg& msg);

  /// Observes every VIRQ sample as it leaves the hypervisor, *before* the
  /// uplink adds latency or faults (the cluster roll-up taps here; a node's
  /// own hypervisor-side stats are exact by construction). nullptr clears.
  void set_virq_tap(StatsSink tap) { virq_tap_ = std::move(tap); }

  std::uint64_t stats_forwarded() const {
    return uplink_.stats().delivered;
  }
  std::uint64_t targets_forwarded() const {
    return downlink_.stats().delivered;
  }
  /// Target vectors re-sent by the ack/retry guard.
  std::uint64_t target_retransmits() const { return target_retransmits_; }

  const comm::Channel<hyper::MemStats>& uplink() const { return uplink_; }
  const comm::Channel<hyper::TargetsMsg>& downlink() const {
    return downlink_;
  }

  /// Uplink stats messages encoded as deltas / as full snapshots. Every
  /// send is full at the default CommConfig::delta.resync_every = 1.
  std::uint64_t stats_delta_sends() const {
    return stats_encoder_.sends() - stats_encoder_.full_sends();
  }
  std::uint64_t stats_full_sends() const { return stats_encoder_.full_sends(); }

  /// Attaches a trace recorder to both hops (one "comm" track per hop) and
  /// registers their counters/latency metrics; either pointer may be null.
  void attach_obs(obs::TraceRecorder* trace, obs::Registry* registry);

 private:
  /// Derives the channel seed for `which` (0 = uplink, 1 = downlink) when
  /// the per-channel config leaves it at 0.
  static comm::ChannelConfig seeded(comm::ChannelConfig cfg,
                                    std::uint64_t base_seed,
                                    std::uint64_t which);

  /// (Re)opens the downlink into the sequenced hypercall, with the implicit
  /// ack observation wrapped around it.
  void install_downlink();

  void schedule_ack_timer();
  void on_ack_timeout();

  sim::Simulator& sim_;
  hyper::Hypervisor& hyp_;
  comm::Channel<hyper::MemStats> uplink_;
  comm::Channel<hyper::TargetsMsg> downlink_;
  StatsSink virq_tap_;
  // Uplink codec (DESIGN §12): each VIRQ sample is framed against the
  // previous send before hitting the channel (a full snapshot at the
  // default resync_every = 1). The virq_tap_ still sees the full snapshot.
  hyper::StatsDeltaEncoder stats_encoder_;

  // Ack/retry state (CommConfig::ack_targets). The delivered hypercall is
  // the implicit ack: the downlink is one-way, so "a message with seq >= the
  // pending one arrived" stands in for an explicit ack message. Duplicates
  // produced by a retransmit racing a slow original are absorbed by the
  // hypervisor's sequence check. Both settings are copied from CommConfig
  // at construction.
  bool ack_targets_ = false;
  SimTime ack_timeout_ = 0;
  std::optional<hyper::TargetsMsg> pending_ack_;
  std::uint32_t retries_left_ = 0;
  std::uint64_t target_retransmits_ = 0;
  sim::EventHandle ack_timer_;
};

}  // namespace smartmem::guest
