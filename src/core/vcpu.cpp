#include "core/vcpu.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/logging.hpp"

namespace smartmem::core {

using workloads::AccessPattern;
using workloads::MemOp;

namespace {
/// Fixed cost charged per region allocation (mmap + bookkeeping).
constexpr SimTime kAllocCost = 5 * kMicrosecond;
}  // namespace

VcpuRunner::VcpuRunner(sim::Simulator& sim, guest::GuestKernel& kernel,
                       workloads::WorkloadPtr workload, VcpuConfig config)
    : sim_(sim),
      kernel_(kernel),
      workload_(std::move(workload)),
      config_(config),
      rng_(config.rng_seed) {
  if (!workload_) {
    throw std::invalid_argument("VcpuRunner: null workload");
  }
  asid_ = kernel_.create_address_space();
}

void VcpuRunner::start(SimTime at) {
  if (started_) {
    throw std::logic_error("VcpuRunner: started twice");
  }
  started_ = true;
  start_time_ = at;
  sim_.schedule_at(at, [this] { run_batch(); });
}

void VcpuRunner::request_stop() { stop_requested_ = true; }

void VcpuRunner::finish(SimTime at) {
  finished_ = true;
  finish_time_ = at;
}

Vpn VcpuRunner::pick_vpn(const MemOp& op) {
  const auto& [base, size] = regions_.at(op.region);
  assert(op.window_offset + op.window_pages <= size);
  PageCount idx;
  switch (op.pattern) {
    case AccessPattern::kSequential:
      idx = op_progress_ % op.window_pages;
      break;
    case AccessPattern::kUniform:
      idx = rng_.uniform(op.window_pages);
      break;
    case AccessPattern::kZipf:
      idx = zipf_->sample(rng_);
      break;
    default:
      idx = 0;
  }
  return base + op.window_offset + idx;
}

VcpuRunner::SliceStatus VcpuRunner::execute_slice(MemOp& op, SimTime& t,
                                                  SimTime deadline,
                                                  SimTime* io_start) {
  switch (op.kind) {
    case MemOp::Kind::kAllocRegion: {
      const Vpn base = kernel_.alloc_region(asid_, op.pages);
      regions_.emplace_back(base, op.pages);
      t += kAllocCost;
      return SliceStatus::kOpDone;
    }

    case MemOp::Kind::kFreeRegion: {
      const auto& [base, size] = regions_.at(op.region);
      t = kernel_.free_region(asid_, base, size, t);
      return SliceStatus::kOpDone;
    }

    case MemOp::Kind::kTouchWindow: {
      if (op.window_pages == 0 || op.touches == 0) return SliceStatus::kOpDone;
      while (op_progress_ < op.touches) {
        if (t >= deadline) return SliceStatus::kBudget;
        const Vpn vpn = pick_vpn(op);
        const SimTime before = t;
        const auto result = kernel_.touch(asid_, vpn, op.write, t);
        t = result.end + op.per_touch_compute;
        ++op_progress_;
        if (track_blocking_io() &&
            result.outcome == guest::TouchOutcome::kDiskSwapIn) {
          *io_start = before;
          return SliceStatus::kBlockedIo;
        }
      }
      return SliceStatus::kOpDone;
    }

    case MemOp::Kind::kRegisterFile:
      kernel_.register_file(op.file_id, op.pages);
      return SliceStatus::kOpDone;

    case MemOp::Kind::kFileRead: {
      while (op_progress_ < op.touches) {
        if (t >= deadline) return SliceStatus::kBudget;
        const auto index =
            static_cast<std::uint32_t>(op.file_index + op_progress_);
        const SimTime before = t;
        const auto result = kernel_.file_read(op.file_id, index, t);
        t = result.end + op.per_touch_compute;
        ++op_progress_;
        if (track_blocking_io() &&
            result.outcome == guest::FileReadOutcome::kDiskRead) {
          *io_start = before;
          return SliceStatus::kBlockedIo;
        }
      }
      return SliceStatus::kOpDone;
    }

    case MemOp::Kind::kSleep:
      t += op.duration;
      return SliceStatus::kOpDone;

    case MemOp::Kind::kMarker: {
      milestones_.push_back({op.label, t});
      if (marker_hook_) marker_hook_(op.label, t);
      return SliceStatus::kOpDone;
    }
  }
  return SliceStatus::kOpDone;
}

void VcpuRunner::run_batch() {
  SimTime t = sim_.now();
  if (stop_requested_ && !finished_) {
    finish(t);
    return;
  }

  // On a contended host, wait for a free physical core first.
  if (track_blocking_io()) {
    const SimTime available = config_.cpu->next_available(t);
    if (available > t) {
      sim_.schedule_at(available, [this] { run_batch(); });
      return;
    }
  }
  const SimTime batch_start = t;
  const SimTime deadline = t + config_.batch_budget;
  auto release_core = [&](SimTime compute_end) {
    if (config_.cpu) config_.cpu->occupy(batch_start, compute_end);
    // Hottest span family in the whole stack (one per executed batch):
    // cached-category, 1-in-N sampled.
    if (trace_guest_ && compute_end > batch_start) {
      trace_->sampled_span(obs::kCatGuest, trace_track_, "vcpu_batch",
                           batch_start, compute_end - batch_start);
    }
  };

  while (t < deadline) {
    if (!current_op_) {
      current_op_ = workload_->next();
      op_progress_ = 0;
      if (!current_op_) {
        release_core(t);
        finish(t);
        return;
      }
      if (current_op_->pattern == AccessPattern::kZipf &&
          current_op_->window_pages > 0) {
        zipf_.emplace(current_op_->window_pages, current_op_->zipf_s);
      }
    }
    // Sleeps release the vCPU entirely: schedule the wake-up and return.
    if (current_op_->kind == MemOp::Kind::kSleep) {
      const SimTime wake = t + current_op_->duration;
      current_op_.reset();
      release_core(t);
      sim_.schedule_at(wake, [this] { run_batch(); });
      return;
    }
    SimTime io_start = t;
    const SliceStatus status =
        execute_slice(*current_op_, t, deadline, &io_start);
    if (status == SliceStatus::kOpDone) {
      current_op_.reset();
      op_progress_ = 0;
      continue;
    }
    if (status == SliceStatus::kBlockedIo) {
      // The core went idle when the vCPU blocked; resume at I/O completion.
      release_core(io_start);
      sim_.schedule_at(t, [this] { run_batch(); });
      return;
    }
    break;  // kBudget: timeslice used up
  }
  release_core(t);
  sim_.schedule_at(t, [this] { run_batch(); });
}

}  // namespace smartmem::core
