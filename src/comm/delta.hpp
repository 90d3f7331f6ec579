// Delta-encoding knob for the sequenced control messages (DESIGN §12).
//
// One struct serves every codec: the TKM's MemStats uplink, the MM's
// TargetsMsg downlink, the cluster rollup uplink and the quota downlink. A
// delta message carries only the entries that changed since the sender's
// previous send, chained to it via `base_seq`; every `resync_every`-th send
// is a full snapshot, so loss/reorder on a faulty channel degrades to at
// most `resync_every - 1` dropped deltas — never divergence. The default,
// 1, makes every send a full snapshot: the paper's full-vector messages.
//
// Header-only on purpose: mm and cluster consume it without linking the
// channel fabric.
#pragma once

#include <cstdint>

namespace smartmem::comm {

struct DeltaConfig {
  /// Every Nth send is a full snapshot (counted per sender endpoint,
  /// starting with the first send). Must be >= 1; 1 = every send full.
  std::uint64_t resync_every = 1;

  /// True when the send that follows `sends` earlier ones is a full one.
  bool full_due(std::uint64_t sends) const {
    return resync_every <= 1 || sends % resync_every == 0;
  }
};

}  // namespace smartmem::comm
