// Per-VM hypervisor state (vm_data_hyp in Table I of the paper) and the
// outcome of one tmem hypercall.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "tmem/key.hpp"

namespace smartmem::hyper {

/// Return status of a tmem hypercall (S_TMEM / E_TMEM in Table I).
enum class OpStatus : std::uint8_t {
  kSuccess,     // S_TMEM
  kNoCapacity,  // E_TMEM: target reached or node out of tmem
  kNotFound,    // get/flush of an absent key
  kBadVm,       // unregistered VM
};

/// Outcome of a put or get hypercall, as the guest sees it.
struct TmemOp {
  OpStatus status = OpStatus::kNotFound;
  /// Tier that stored (put) or served (get) the page; kRemote when the
  /// page lives with a donor node. Meaningful only when ok().
  tmem::Tier tier = tmem::Tier::kDram;
  /// Modeled lending-fabric time the call spent: the round trip of a
  /// remote put/get, or the accumulated timeouts of a give-up. 0 when the
  /// call never crossed the fabric.
  SimTime fabric = 0;
  /// The page a successful get returned.
  tmem::PagePayload payload = 0;

  bool ok() const { return status == OpStatus::kSuccess; }
};

struct VmData {
  VmId vm_id = kInvalidVm;

  /// Target number of tmem pages the MM allows this VM (mm_target).
  /// kUnlimitedTarget reproduces the default greedy behaviour.
  PageCount mm_target = kUnlimitedTarget;

  // ---- Interval counters: reset at every sampling VIRQ -------------------
  std::uint64_t puts_total = 0;   // puts issued this interval
  std::uint64_t puts_succ = 0;    // puts that succeeded this interval
  std::uint64_t gets_total = 0;
  std::uint64_t gets_hit = 0;
  std::uint64_t flushes = 0;

  // ---- Cumulative counters (VM lifetime) ---------------------------------
  std::uint64_t cumul_puts_total = 0;
  std::uint64_t cumul_puts_succ = 0;
  std::uint64_t cumul_puts_failed = 0;
  std::uint64_t cumul_gets_total = 0;
  std::uint64_t cumul_gets_hit = 0;
  std::uint64_t cumul_flushes = 0;
  std::uint64_t targets_applied = 0;  // how many MM updates touched this VM
  PageCount pages_reclaimed = 0;      // via slow background reclaim

  // ---- Tmem pools belonging to the VM ------------------------------------
  tmem::PoolId frontswap_pool = tmem::kInvalidPool;   // persistent
  tmem::PoolId cleancache_pool = tmem::kInvalidPool;  // ephemeral

  tmem::PoolId pool(tmem::PoolType type) const {
    return type == tmem::PoolType::kPersistent ? frontswap_pool
                                               : cleancache_pool;
  }
};

}  // namespace smartmem::hyper
