// The statistics ABI between hypervisor and Memory Manager.
//
// These structs mirror Table I of the paper: the hypervisor samples them once
// per interval (1 s), ships them up through the TKM's netlink channel, and
// the MM answers with an mm_out vector of per-VM target allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace smartmem::hyper {

/// Per-VM slice of a memstats sample.
struct VmMemStats {
  /// Identifier of the VM within Xen (memstats.vm[i].vm_id).
  VmId vm_id = kInvalidVm;
  /// Puts issued by the VM in the sampling interval (memstats.vm[i].puts_total).
  std::uint64_t puts_total = 0;
  /// Puts that succeeded in the sampling interval (memstats.vm[i].puts_succ).
  std::uint64_t puts_succ = 0;
  /// Failed puts accumulated over the VM's lifetime; Algorithm 3 keys its
  /// notion of "has ever swapped" off this (cumul_puts_failed).
  std::uint64_t cumul_puts_failed = 0;
  /// Tmem currently used by the VM (vm_data_hyp[id].tmem_used), in the
  /// node's capacity units: pages, or effective bytes under
  /// CapacityUnits::kBytes (compressed pages at their compressed size).
  PageCount tmem_used = 0;
  /// Target currently enforced by the hypervisor (vm_data_hyp[id].mm_target).
  PageCount mm_target = kUnlimitedTarget;

  friend bool operator==(const VmMemStats&, const VmMemStats&) = default;
};

/// One sample of node-wide memory statistics (memstats in Table I).
struct MemStats {
  /// Sampling sequence number, stamped by the hypervisor's VIRQ tick
  /// (1-based; 0 = unsequenced snapshot). The MM uses it to discard
  /// duplicated or out-of-order uplink deliveries instead of acting on a
  /// stale sample.
  std::uint64_t seq = 0;
  SimTime when = 0;
  /// Sampling interval of the hypervisor that captured this sample; the
  /// receiver measures the sample's staleness in units of it. 0 = unknown
  /// (hand-built snapshots); receivers fall back to their configured
  /// interval.
  SimTime interval = 0;
  PageCount total_tmem = 0;          // node_info.total_tmem
  PageCount free_tmem = 0;           // node_info.free_tmem
  std::uint32_t vm_count = 0;        // node_info.vm_count
  std::vector<VmMemStats> vm;
  /// Delta framing (DESIGN §12). When `delta` is true, `vm` carries only the
  /// entries that changed since the sender's previous send and the message
  /// chains onto it: it applies iff the receiver's last applied seq equals
  /// `base_seq`. A broken chain (lost/reordered predecessor) drops the
  /// message *without* advancing the receiver's seq, so recovery is the next
  /// full snapshot — never a partial fold onto the wrong base. The scalar
  /// header fields above are always absolute.
  bool delta = false;
  std::uint64_t base_seq = 0;
};

/// One entry of the MM's output (mm_out[i] in Table I).
struct MmTarget {
  VmId vm_id = kInvalidVm;           // mm_out[i].vm_id
  PageCount mm_target = 0;           // mm_out[i].mm_target

  friend bool operator==(const MmTarget&, const MmTarget&) = default;
};

/// The full policy output: one target per VM.
using MmOut = std::vector<MmTarget>;

/// Sequenced envelope for an mm_out transmission (the netlink + hypercall
/// downlink hop). A reordered or duplicated delivery would silently regress
/// targets to an older vector; the hypervisor drops any message whose seq
/// is not newer than the last applied one. seq 0 = unsequenced (always
/// applied — the raw hypercall path used by tests and tooling).
struct TargetsMsg {
  std::uint64_t seq = 0;
  MmOut targets;
  /// Delta framing, mirroring MemStats: when true, `targets` carries only
  /// the per-VM targets that changed since the sender's previous send, and
  /// the message applies iff the hypervisor's last applied seq == base_seq.
  bool delta = false;
  std::uint64_t base_seq = 0;
};

/// Modeled wire sizes (bytes) of the control messages — pure functions of
/// the payload, used as Channel sizers so control_bytes is deterministic.
/// Layout mirrors a packed C ABI struct: fixed header + array of entries.
inline std::size_t wire_size(const VmMemStats&) {
  // vm_id(4) + puts_total(8) + puts_succ(8) + cumul(8) + used(8) + target(8)
  return 44;
}
inline std::size_t wire_size(const MemStats& s) {
  // seq(8) + when(8) + interval(8) + total(8) + free(8) + vm_count(4) +
  // flags/base_seq(1+8) + entry count(4)
  return 57 + s.vm.size() * 44;
}
inline std::size_t wire_size(const MmTarget&) {
  return 12;  // vm_id(4) + mm_target(8)
}
inline std::size_t wire_size(const TargetsMsg& m) {
  // seq(8) + reserved(8) + flags/base_seq(1+8) + entry count(4)
  return 29 + m.targets.size() * 12;
}

}  // namespace smartmem::hyper
