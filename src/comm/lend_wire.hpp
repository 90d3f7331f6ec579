// Wire framing of the lending data plane.
//
// A borrow put/get is a sequenced request/response message pair crossing
// the rack fabric between a borrower and a donor: the request carries the
// borrower-relative page identity (and, for puts, the page itself), the
// response carries the outcome (and, for gets, the page). The structs here
// are the modeled frames — the cluster's LendFabric draws their latency and
// fault outcomes from the topology's lending-hop ChannelConfigs and charges
// their wire sizes to the fabric's byte counters, exactly as the control
// plane does for NodeStats roll-ups. Sequence numbers make retries
// idempotent: a donor that serviced attempt k and then sees attempt k+1 of
// the same (borrower, seq) performs a replacement, never a duplicate.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "tmem/key.hpp"

namespace smartmem::comm {

/// Operations the lending data plane carries. Put/get are round trips the
/// guest waits on; flush (of one page, also sent for a release) is a
/// fire-and-forget invalidation the borrower does not block on.
enum class LendOp : std::uint8_t {
  kPut,
  kGet,
  kFlush,
};

/// Borrower -> donor request frame.
struct LendRequest {
  std::uint64_t seq = 0;  // per-(borrower, donor) pair, monotonically rising
  LendOp op = LendOp::kPut;
  std::uint32_t borrower = 0;
  VmId vm = 0;
  tmem::PoolType type = tmem::PoolType::kPersistent;
  std::uint64_t object = 0;
  std::uint32_t index = 0;
  bool carries_page = false;  // kPut requests ship the page inline

  /// Modeled frame size: header + identity (+ one page for puts).
  std::uint64_t wire_bytes() const {
    const std::uint64_t header = 8 + 1 + 4 + 4 + 1 + 8 + 4;
    return carries_page ? header + kPageSize : header;
  }
};

/// Donor -> borrower response frame.
struct LendResponse {
  std::uint64_t seq = 0;  // echoes the request
  bool ok = false;
  bool carries_page = false;  // kGet responses ship the page inline

  std::uint64_t wire_bytes() const {
    const std::uint64_t header = 8 + 1 + 1;
    return carries_page ? header + kPageSize : header;
  }
};

}  // namespace smartmem::comm
