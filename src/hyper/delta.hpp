// Delta codecs for the MemStats uplink and the TargetsMsg downlink
// (DESIGN §12).
//
// The full-vector control plane ships every per-VM entry every interval; at
// fleet scale (hundreds of VMs per node) that dominates control-plane bytes
// even though only a handful of VMs change between samples. These codecs
// keep the *semantics* of the sequenced messages while sending only changed
// entries:
//
//  * the encoder diffs each outgoing snapshot against the last one it sent
//    and emits a delta chained to it via base_seq; every resync_every-th
//    send is a full snapshot;
//  * the decoder (view) folds deltas into a materialized snapshot, applying
//    a delta iff base_seq equals its last applied seq. A broken chain
//    (lost, reordered or duplicated predecessor) drops the message WITHOUT
//    advancing the applied seq — the invariant that makes loss degrade to
//    "wait for the next resync", never to a fold onto the wrong base.
//
// At resync_every = 1 (the default) every message is a full snapshot, which
// is the paper's full-vector control plane through the same code.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/delta.hpp"
#include "hyper/memstats.hpp"

namespace smartmem::hyper {

/// Sender side of the MemStats uplink (lives in the TKM). Stateless about
/// delivery: the chain base is the seq of the previous *encoded* message,
/// and breakage is detected by the receiver.
class StatsDeltaEncoder {
 public:
  explicit StatsDeltaEncoder(comm::DeltaConfig cfg) : cfg_(cfg) {}

  /// Encodes one full snapshot into the message to put on the wire: either
  /// the snapshot itself (resync cadence, first send, or VM-set change) or
  /// a delta carrying only the changed entries.
  MemStats encode(const MemStats& full);

  std::uint64_t sends() const { return sends_; }
  std::uint64_t full_sends() const { return full_sends_; }

 private:
  comm::DeltaConfig cfg_;
  MemStats last_;           // snapshot as of the previous send
  std::uint64_t last_seq_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t full_sends_ = 0;
};

/// Receiver side of the MemStats uplink (lives in the MemoryManager): a
/// materialized snapshot.
class StatsDeltaView {
 public:
  /// Folds one message. Returns true when applied; false when dropped
  /// (stale seq or broken delta chain — the view is untouched).
  bool apply(const MemStats& msg);

  const MemStats& view() const { return view_; }
  std::uint64_t last_applied_seq() const { return last_applied_seq_; }
  std::uint64_t chain_breaks() const { return chain_breaks_; }
  std::uint64_t stale_drops() const { return stale_drops_; }

 private:
  MemStats view_;
  std::uint64_t last_applied_seq_ = 0;
  std::uint64_t chain_breaks_ = 0;
  std::uint64_t stale_drops_ = 0;
};

/// Sender side of the TargetsMsg downlink (lives in the MemoryManager).
/// The MM still computes a full MmOut per decision; the encoder turns it
/// into the message to send.
class TargetsDeltaEncoder {
 public:
  explicit TargetsDeltaEncoder(comm::DeltaConfig cfg) : cfg_(cfg) {}

  /// Encodes the full target vector `full` under sequence number `seq`.
  TargetsMsg encode(std::uint64_t seq, const MmOut& full);

  std::uint64_t sends() const { return sends_; }
  std::uint64_t full_sends() const { return full_sends_; }

 private:
  comm::DeltaConfig cfg_;
  MmOut last_;              // target vector as of the previous send
  std::uint64_t last_seq_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t full_sends_ = 0;
};

}  // namespace smartmem::hyper
