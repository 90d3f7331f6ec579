// The control-plane communication fabric.
//
// The paper's management loop rides a three-hop message path: the hypervisor
// raises a VIRQ once per sampling interval, the TKM relays the memstats
// payload to the user-space Memory Manager over a netlink socket, and the
// MM's target vector travels back down through custom hypercalls. Section
// IV's reconf-static discussion calls out the consequence: decisions always
// act on data that is roughly one sampling interval stale.
//
// Channel<T> models one such hop as a first-class object on the simulator:
//  * a fixed one-way latency per hop;
//  * a bounded in-flight queue with drop-oldest / drop-newest policies (an
//    unbounded queue models the paper's netlink socket, whose kernel buffer
//    in practice never fills at one message per second);
//  * fault injection — loss, duplication, reordering, and a down-window —
//    so policies can be tested against the delivery hazards "Flexible
//    Swapping for the Cloud" argues cloud control paths must tolerate,
//    drawn from a private deterministic Rng so that parallel experiment
//    fan-out stays bit-identical for every jobs value;
//  * per-channel counters and a delivery-latency histogram (common/stats).
//
// With the default config (no faults, unbounded queue) a channel performs
// exactly one simulator schedule() per send and consumes no randomness, so
// the refactor from the hard-coded std::function hops is invisible: every
// figure bench reproduces byte-identical output.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "comm/delta.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace smartmem::comm {

/// What happens when a send finds the bounded in-flight queue full.
enum class QueuePolicy : std::uint8_t {
  kDropNewest,  // reject the new message
  kDropOldest,  // cancel the oldest undelivered message, accept the new one
};

/// Delivery hazards injected on the send path.
struct FaultSpec {
  /// Probability a message is silently lost.
  double loss_rate = 0.0;
  /// Probability a message is delivered twice.
  double duplication_rate = 0.0;
  /// Probability a message is delayed by `reorder_extra` on top of its
  /// latency, pushing it behind later sends.
  double reorder_rate = 0.0;
  SimTime reorder_extra = 10 * kMillisecond;
  /// Half-open outage window [down_from, down_until): sends inside it are
  /// dropped on the floor. Negative bounds disable the window.
  SimTime down_from = -1;
  SimTime down_until = -1;

  bool any() const {
    return loss_rate > 0.0 || duplication_rate > 0.0 || reorder_rate > 0.0 ||
           down_from >= 0;
  }
};

struct ChannelConfig {
  std::string name = "chan";
  /// One-way delay of every delivery.
  SimTime latency = 100 * kMicrosecond;
  FaultSpec faults;
  /// Maximum in-flight (sent, not yet delivered) messages. 0 = unbounded.
  std::size_t queue_capacity = 0;
  QueuePolicy queue_policy = QueuePolicy::kDropNewest;
  /// Seed for the channel's private Rng; 0 lets the owner derive one.
  std::uint64_t seed = 0;

  /// Scales every time constant by `f` (build_node's scenario scaling).
  void scale_times(double f);
};

/// Outcome of Channel<T>::send().
enum class SendResult : std::uint8_t {
  kQueued,       // scheduled for delivery
  kLost,         // dropped by loss_rate
  kDown,         // dropped by the outage window
  kDroppedFull,  // rejected: queue full under kDropNewest
  kClosed,       // channel not open
};

struct ChannelStats {
  std::uint64_t sent = 0;           // sends accepted onto the wire
  std::uint64_t delivered = 0;      // receiver invocations
  std::uint64_t dropped_loss = 0;   // lost to loss_rate
  std::uint64_t dropped_down = 0;   // lost to the outage window
  std::uint64_t dropped_queue = 0;  // queue-full victims (either drop policy)
  std::uint64_t duplicated = 0;     // extra deliveries scheduled
  std::uint64_t reordered = 0;      // messages given the reorder penalty
  std::uint64_t cancelled = 0;      // in-flight deliveries killed by close()
  /// Modeled wire bytes of accepted sends (set_sizer). Counted once per
  /// accepted send — duplication is the channel's fault, not the sender's
  /// traffic — so the delta-vs-full saving reads directly off this counter.
  std::uint64_t payload_bytes = 0;
  /// Delivery latency in microseconds (mean/min/max and a histogram for
  /// quantiles; the 10 ms upper edge covers every configured hop, slower
  /// deliveries land in the overflow bucket and still count in `latency`).
  RunningStats latency;
  Histogram latency_hist{0.0, 10'000.0, 100};
};

/// Queue-policy <-> flag-string helpers for bench front-ends. parse returns
/// false (leaving `out` untouched) on an unknown name.
const char* to_string(QueuePolicy p);
bool parse_queue_policy(const std::string& text, QueuePolicy& out);

/// A typed, unidirectional, simulated message channel.
///
/// Not movable: in-flight delivery events capture `this`. Owners hold
/// channels as direct members or behind unique_ptr and never relocate them.
template <typename T>
class Channel {
 public:
  using Receiver = std::function<void(const T&)>;

  Channel(sim::Simulator& sim, ChannelConfig config)
      : sim_(sim),
        config_(std::move(config)),
        rng_(config_.seed != 0 ? config_.seed : 0x6368616e6e656cULL) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Attaches the receiving endpoint and starts accepting sends.
  void open(Receiver receiver) {
    receiver_ = std::move(receiver);
    open_ = true;
  }

  /// Closes the channel: every in-flight delivery is cancelled (counted in
  /// stats().cancelled) and further sends return kClosed. open() re-arms.
  void close() {
    open_ = false;
    receiver_ = nullptr;
    stats_.cancelled += pending_.size();
    for (auto& [id, handle] : pending_) handle.cancel();
    pending_.clear();
  }

  bool is_open() const { return open_; }

  SendResult send(const T& msg) {
    if (!open_) return SendResult::kClosed;
    const FaultSpec& f = config_.faults;
    if (f.down_from >= 0 && sim_.now() >= f.down_from &&
        sim_.now() < f.down_until) {
      ++stats_.dropped_down;
      trace_drop("drop:down");
      return SendResult::kDown;
    }
    if (f.loss_rate > 0.0 && rng_.chance(f.loss_rate)) {
      ++stats_.dropped_loss;
      trace_drop("drop:loss");
      return SendResult::kLost;
    }
    if (config_.queue_capacity != 0 &&
        pending_.size() >= config_.queue_capacity) {
      switch (config_.queue_policy) {
        case QueuePolicy::kDropNewest:
          ++stats_.dropped_queue;
          trace_drop("drop:queue_full");
          return SendResult::kDroppedFull;
        case QueuePolicy::kDropOldest: {
          auto oldest = pending_.begin();
          oldest->second.cancel();
          pending_.erase(oldest);
          ++stats_.dropped_queue;
          trace_drop("drop:oldest");
          break;
        }
      }
    }
    ++stats_.sent;
    if (sizer_) stats_.payload_bytes += sizer_(msg);
    SimTime delay = config_.latency;
    if (f.reorder_rate > 0.0 && rng_.chance(f.reorder_rate)) {
      ++stats_.reordered;
      delay += f.reorder_extra;
    }
    schedule_delivery(msg, delay);
    if (f.duplication_rate > 0.0 && rng_.chance(f.duplication_rate)) {
      ++stats_.duplicated;
      schedule_delivery(msg, config_.latency);
    }
    return SendResult::kQueued;
  }

  /// Messages sent but not yet delivered (the bounded-queue occupancy).
  std::size_t in_flight() const { return pending_.size(); }

  const ChannelStats& stats() const { return stats_; }
  const ChannelConfig& config() const { return config_; }

  /// Installs a payload-size model: every accepted send adds `sizer(msg)` to
  /// stats().payload_bytes. The sizer must be a pure function of the message
  /// (wire_size() helpers next to each message type) so byte counts are
  /// deterministic. nullptr detaches (bytes stop accumulating).
  void set_sizer(std::function<std::size_t(const T&)> sizer) {
    sizer_ = std::move(sizer);
  }

  /// Attaches a trace recorder: each delivery becomes a flight span (from
  /// send to delivery on `track`) and each drop an instant. nullptr detaches.
  void set_trace(obs::TraceRecorder* trace, std::uint16_t track) {
    trace_ = trace;
    trace_track_ = track;
    trace_name_ = trace != nullptr ? trace->intern(config_.name) : nullptr;
  }

  /// Makes the channel span two engine shards: the sender side (this
  /// channel's simulator, stats, RNG, trace) lives on shard `src`, while the
  /// receiver closure is carried to shard `dst` through the engine's staged
  /// outboxes. The channel's latency must be >= the engine lookahead for
  /// the conservative window to stay safe — callers derive the lookahead
  /// from the minimum latency over every cross-shard hop. kDropOldest with a
  /// bounded queue is rejected: cancelling the oldest in-flight message
  /// cannot reach into a peer shard's already-staged delivery.
  void bind_cross_shard(sim::ParallelEngine* engine, std::size_t src_shard,
                        std::size_t dst_shard) {
    if (engine != nullptr && config_.queue_capacity != 0 &&
        config_.queue_policy == QueuePolicy::kDropOldest) {
      throw std::invalid_argument(
          "Channel: kDropOldest with a bounded queue cannot cross shards");
    }
    engine_ = engine;
    src_shard_ = src_shard;
    dst_shard_ = dst_shard;
  }

 private:
  void schedule_delivery(const T& msg, SimTime delay) {
    const std::uint64_t id = next_delivery_id_++;
    if (engine_ != nullptr) {
      // Cross-shard: the source shard keeps all bookkeeping (in-flight map,
      // stats, trace span) via a local completion event at the delivery
      // time; only the receiver invocation crosses shards, injected at the
      // destination by the engine in deterministic (when, src, seq) order.
      pending_.emplace(id, sim_.schedule(delay, [this, id, delay] {
        pending_.erase(id);
        record_delivery(id, delay);
      }));
      engine_->post(src_shard_, dst_shard_, sim_.now() + delay,
                    [this, msg] {
                      if (receiver_) receiver_(msg);
                    });
      return;
    }
    // schedule() never fires synchronously (even at delay 0 the event waits
    // for the next step), so inserting the handle after scheduling is safe.
    pending_.emplace(id, sim_.schedule(delay, [this, id, delay, msg] {
      pending_.erase(id);
      record_delivery(id, delay);
      if (receiver_) receiver_(msg);
    }));
  }

  void record_delivery(std::uint64_t id, SimTime delay) {
    ++stats_.delivered;
    const double us =
        static_cast<double>(delay) / static_cast<double>(kMicrosecond);
    stats_.latency.add(us);
    stats_.latency_hist.add(us);
    if (trace_ != nullptr && trace_->enabled(obs::kCatComm)) {
      // Span covers the message's flight: begins at send, ends now.
      trace_->span(obs::kCatComm, trace_track_, trace_name_,
                   sim_.now() - delay, delay,
                   {{"latency_us", us}, {"msg_id", static_cast<double>(id)}});
    }
  }

  void trace_drop(const char* kind) {
    if (trace_ != nullptr && trace_->enabled(obs::kCatComm)) {
      trace_->instant(obs::kCatComm, trace_track_, kind, sim_.now(), {});
    }
  }

  sim::Simulator& sim_;
  ChannelConfig config_;
  Rng rng_;
  Receiver receiver_;
  bool open_ = false;
  std::uint64_t next_delivery_id_ = 0;
  std::function<std::size_t(const T&)> sizer_;
  // Ordered by send sequence so kDropOldest can cancel begin(); deliveries
  // erase themselves when they fire.
  std::map<std::uint64_t, sim::EventHandle> pending_;
  ChannelStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  std::uint16_t trace_track_ = 0;
  const char* trace_name_ = nullptr;  // interned config_.name
  // Cross-shard mode (bind_cross_shard): nullptr = classic single-simulator
  // delivery.
  sim::ParallelEngine* engine_ = nullptr;
  std::size_t src_shard_ = 0;
  std::size_t dst_shard_ = 0;
};

/// Registers one channel's counters and latency summary into `reg` under
/// `prefix` (e.g. "comm.uplink."). The stats object must outlive `reg`.
void register_channel_metrics(obs::Registry& reg, const std::string& prefix,
                              const ChannelStats* stats);

/// Configuration of the whole VIRQ/netlink/hypercall control plane: the
/// uplink (hypervisor -> MM) and downlink (MM -> hypervisor) hops. The
/// defaults reproduce the pre-comm wiring: 100 us per hop, perfectly
/// reliable, unbounded.
struct CommConfig {
  ChannelConfig uplink;
  ChannelConfig downlink;
  /// Base seed the per-channel Rngs derive from when their own seed is 0.
  /// build_node() mixes the repetition seed in so fault draws differ across
  /// repetitions yet stay reproducible.
  std::uint64_t seed = 0x736d61727463686eULL;

  /// Downlink delivery guard (the roadmap's retry/ack item). When true the
  /// TKM keeps the newest submitted TargetsMsg and, if its delivery has not
  /// been observed within ack_timeout, retransmits it — up to
  /// Tkm::kAckMaxRetries times per message. The sequenced hypercall
  /// completing is the implicit ack (the simulated downlink is one-way);
  /// duplicated deliveries are absorbed by the hypervisor's seq check. Off
  /// by default: the paper's control plane has no retransmission, and a
  /// lost vector is gone until targets next change (suppress_unchanged).
  bool ack_targets = false;
  SimTime ack_timeout = 500 * kMillisecond;

  /// Framing of the MemStats uplink and the TargetsMsg downlink (DESIGN
  /// §12). The default resync_every = 1 sends every message full, the
  /// paper's full-vector control plane.
  DeltaConfig delta;

  CommConfig() {
    uplink.name = "uplink";
    downlink.name = "downlink";
  }

  void scale_times(double f) {
    uplink.scale_times(f);
    downlink.scale_times(f);
    ack_timeout = static_cast<SimTime>(static_cast<double>(ack_timeout) * f);
  }
};

}  // namespace smartmem::comm
