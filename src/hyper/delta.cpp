#include "hyper/delta.hpp"

#include <algorithm>

namespace smartmem::hyper {

namespace {

// True when both snapshots cover the same VMs in the same order — the
// precondition for entry-wise delta diffing. Registration changes are rare
// (fleet VM sets are fixed after boot), so a mismatch just forces one full
// snapshot and restarts the chain from it.
template <typename Entry>
bool same_id_set(const std::vector<Entry>& a, const std::vector<Entry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].vm_id != b[i].vm_id) return false;
  }
  return true;
}

}  // namespace

MemStats StatsDeltaEncoder::encode(const MemStats& full) {
  const bool cadence_full = cfg_.full_due(sends_);
  ++sends_;
  MemStats out;
  if (cadence_full || !same_id_set(last_.vm, full.vm)) {
    out = full;
    out.delta = false;
    out.base_seq = 0;
    ++full_sends_;
  } else {
    out.seq = full.seq;
    out.when = full.when;
    out.interval = full.interval;
    out.total_tmem = full.total_tmem;
    out.free_tmem = full.free_tmem;
    out.vm_count = full.vm_count;
    out.delta = true;
    out.base_seq = last_seq_;
    for (std::size_t i = 0; i < full.vm.size(); ++i) {
      if (!(full.vm[i] == last_.vm[i])) out.vm.push_back(full.vm[i]);
    }
  }
  last_ = full;
  last_seq_ = full.seq;
  return out;
}

bool StatsDeltaView::apply(const MemStats& msg) {
  if (msg.seq != 0 && msg.seq <= last_applied_seq_) {
    ++stale_drops_;
    return false;
  }
  if (msg.delta) {
    if (msg.base_seq != last_applied_seq_) {
      // Chain broken: a predecessor was lost or reordered. Drop WITHOUT
      // advancing last_applied_seq_ — later deltas keep failing the same
      // check until a full snapshot restores the base.
      ++chain_breaks_;
      return false;
    }
    view_.seq = msg.seq;
    view_.when = msg.when;
    view_.interval = msg.interval;
    view_.total_tmem = msg.total_tmem;
    view_.free_tmem = msg.free_tmem;
    view_.vm_count = msg.vm_count;
    for (const VmMemStats& e : msg.vm) {
      auto it = std::lower_bound(
          view_.vm.begin(), view_.vm.end(), e.vm_id,
          [](const VmMemStats& v, VmId id) { return v.vm_id < id; });
      if (it != view_.vm.end() && it->vm_id == e.vm_id) {
        *it = e;
      } else {
        view_.vm.insert(it, e);
      }
    }
  } else {
    view_ = msg;
    view_.delta = false;
    view_.base_seq = 0;
  }
  if (msg.seq != 0) last_applied_seq_ = msg.seq;
  return true;
}

TargetsMsg TargetsDeltaEncoder::encode(std::uint64_t seq, const MmOut& full,
                                       SimTime new_interval) {
  const bool cadence_full = cfg_.full_due(sends_);
  ++sends_;
  TargetsMsg out;
  out.seq = seq;
  out.new_interval = new_interval;
  if (cadence_full || !same_id_set(last_, full)) {
    out.targets = full;
    out.delta = false;
    out.base_seq = 0;
    ++full_sends_;
  } else {
    out.delta = true;
    out.base_seq = last_seq_;
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (!(full[i] == last_[i])) out.targets.push_back(full[i]);
    }
  }
  last_ = full;
  last_seq_ = seq;
  return out;
}

}  // namespace smartmem::hyper
