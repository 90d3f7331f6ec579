#include "guest/tkm.hpp"

#include <utility>

namespace smartmem::guest {

comm::ChannelConfig Tkm::seeded(comm::ChannelConfig cfg,
                                std::uint64_t base_seed,
                                std::uint64_t which) {
  if (cfg.seed == 0) {
    // splitmix64-style diffusion keeps the two hops' streams independent
    // even for adjacent base seeds.
    std::uint64_t z = base_seed + (which + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    cfg.seed = z ^ (z >> 31);
    if (cfg.seed == 0) cfg.seed = 1;
  }
  return cfg;
}

Tkm::Tkm(sim::Simulator& sim, hyper::Hypervisor& hypervisor,
         comm::CommConfig config)
    : sim_(sim),
      hyp_(hypervisor),
      uplink_(sim, seeded(std::move(config.uplink), config.seed, 0)),
      downlink_(sim, seeded(std::move(config.downlink), config.seed, 1)),
      stats_encoder_(config.delta),
      ack_targets_(config.ack_targets),
      ack_timeout_(config.ack_timeout) {
  // Wire-size models make control-plane bytes measurable in either
  // encoding; a sizer is pure bookkeeping and never touches behavior.
  uplink_.set_sizer(
      [](const hyper::MemStats& m) { return hyper::wire_size(m); });
  downlink_.set_sizer(
      [](const hyper::TargetsMsg& m) { return hyper::wire_size(m); });
  // The downlink terminates in the sequenced hypercall from construction on,
  // so an MM (or test) may submit targets before start().
  install_downlink();
}

void Tkm::install_downlink() {
  downlink_.open([this](const hyper::TargetsMsg& msg) {
    // Implicit ack: this or any newer vector arriving supersedes the
    // pending retransmission. Costs one test on an empty optional when the
    // ack guard is off.
    if (pending_ack_ && msg.seq >= pending_ack_->seq) {
      pending_ack_.reset();
      ack_timer_.cancel();
    }
    hyp_.apply_targets(msg);
  });
}

void Tkm::start(StatsSink sink) {
  uplink_.open(std::move(sink));
  if (!downlink_.is_open()) install_downlink();
  hyp_.start_sampling([this](const hyper::MemStats& stats) {
    if (virq_tap_) virq_tap_(stats);
    uplink_.send(stats_encoder_.encode(stats));
  });
}

void Tkm::stop() {
  hyp_.stop_sampling();
  uplink_.close();
  downlink_.close();
  ack_timer_.cancel();
  pending_ack_.reset();
}

comm::SendResult Tkm::submit_targets(const hyper::TargetsMsg& msg) {
  const comm::SendResult result = downlink_.send(msg);
  if (ack_targets_ && msg.seq != 0) {
    // Remember the newest vector whether or not the send was accepted — a
    // loss on the wire is exactly what the retry exists to cover.
    pending_ack_ = msg;
    retries_left_ = kAckMaxRetries;
    schedule_ack_timer();
  }
  return result;
}

void Tkm::schedule_ack_timer() {
  ack_timer_.cancel();
  ack_timer_ = sim_.schedule(ack_timeout_, [this] { on_ack_timeout(); });
}

void Tkm::on_ack_timeout() {
  if (!pending_ack_) return;
  if (retries_left_ == 0) {
    // Give up; the next target change (or the MM's next interval) takes
    // over, as in the no-ack configuration.
    pending_ack_.reset();
    return;
  }
  --retries_left_;
  ++target_retransmits_;
  downlink_.send(*pending_ack_);
  schedule_ack_timer();
}

void Tkm::attach_obs(obs::TraceRecorder* trace, obs::Registry* registry) {
  if (trace != nullptr) {
    uplink_.set_trace(trace,
                      trace->register_track("comm", uplink_.config().name));
    downlink_.set_trace(
        trace, trace->register_track("comm", downlink_.config().name));
  } else {
    uplink_.set_trace(nullptr, 0);
    downlink_.set_trace(nullptr, 0);
  }
  if (registry != nullptr) {
    comm::register_channel_metrics(*registry, "comm.uplink.",
                                   &uplink_.stats());
    comm::register_channel_metrics(*registry, "comm.downlink.",
                                   &downlink_.stats());
    registry->add_counter("comm.target_retransmits", &target_retransmits_);
    // Delta-encoding health on the uplink endpoint: the full/delta split is
    // the resync frequency a fleet health report reads (every send counts
    // as full at resync_every = 1).
    registry->add_counter("comm.uplink.stats_full_sends", [this] {
      return static_cast<double>(stats_full_sends());
    });
    registry->add_counter("comm.uplink.stats_delta_sends", [this] {
      return static_cast<double>(stats_delta_sends());
    });
  }
}

}  // namespace smartmem::guest
