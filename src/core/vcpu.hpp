// The vCPU runner: executes a Workload's ops against a GuestKernel.
//
// Each VM in the modelled scenarios has one vCPU running one benchmark
// process (Table II gives every VM 1 CPU). To keep the event queue small the
// runner executes work in batches: it advances a local virtual clock through
// as many operations as fit in `batch_budget`, then schedules its next batch
// at the reached time. Blocking I/O inside a batch simply advances the local
// clock past the budget — the maximum look-ahead relative to other actors is
// one batch plus one disk access, which is negligible against the 1-second
// policy sampling interval.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "guest/guest_kernel.hpp"
#include "obs/trace.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "workloads/workload.hpp"

namespace smartmem::core {

struct VcpuConfig {
  SimTime batch_budget = 500 * kMicrosecond;
  std::uint64_t rng_seed = 1;
  /// Physical CPU pool this vCPU competes on (nullptr or an uncontended
  /// pool = dedicated core). Blocking disk I/O releases the core.
  sim::CpuPool* cpu = nullptr;
};

struct Milestone {
  std::string label;
  SimTime when = 0;
};

class VcpuRunner {
 public:
  /// Hook fired on every marker op; used by scenarios for staggered
  /// start/stop coordination.
  using MarkerHook =
      std::function<void(const std::string& label, SimTime when)>;

  VcpuRunner(sim::Simulator& sim, guest::GuestKernel& kernel,
             workloads::WorkloadPtr workload, VcpuConfig config);

  /// Schedules the first batch at absolute time `at`.
  void start(SimTime at);

  /// Asks the runner to stop at its next batch boundary (or wake-up).
  void request_stop();

  void set_marker_hook(MarkerHook hook) { marker_hook_ = std::move(hook); }

  /// Attaches a trace recorder: executed batches become spans on `track`
  /// (category guest, 1-in-N sampled per TraceConfig::sample_every).
  /// nullptr detaches. The category test is resolved here, once — the
  /// per-batch hot path checks a single cached bool.
  void set_trace(obs::TraceRecorder* trace, std::uint16_t track) {
    trace_ = trace;
    trace_track_ = track;
    trace_guest_ = trace != nullptr && trace->enabled(obs::kCatGuest);
  }

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  bool stop_requested() const { return stop_requested_; }
  SimTime start_time() const { return start_time_; }
  SimTime finish_time() const { return finish_time_; }
  const std::vector<Milestone>& milestones() const { return milestones_; }
  const workloads::Workload& workload() const { return *workload_; }
  guest::GuestKernel& kernel() { return kernel_; }
  VmId vm() const { return kernel_.config().vm; }

 private:
  enum class SliceStatus : std::uint8_t {
    kOpDone,     // the op completed within the budget
    kBudget,     // budget exhausted mid-op; resume next batch
    kBlockedIo,  // a blocking disk access occurred (core released)
  };

  void run_batch();
  void finish(SimTime at);

  /// Executes (part of) the current op from local time `t`. On kBlockedIo,
  /// `*io_start` is the time the vCPU blocked (its core becomes free then)
  /// and `t` is the I/O completion time.
  SliceStatus execute_slice(workloads::MemOp& op, SimTime& t, SimTime deadline,
                            SimTime* io_start);

  /// Whether blocking I/O should end a batch (only worth the extra events
  /// when cores are actually contended).
  bool track_blocking_io() const { return config_.cpu && config_.cpu->contended(); }

  Vpn pick_vpn(const workloads::MemOp& op);

  sim::Simulator& sim_;
  guest::GuestKernel& kernel_;
  workloads::WorkloadPtr workload_;
  VcpuConfig config_;
  Rng rng_;

  mem::AddressSpace::Id asid_ = 0;
  std::vector<std::pair<Vpn, PageCount>> regions_;  // base, size by RegionId
  std::optional<workloads::MemOp> current_op_;
  PageCount op_progress_ = 0;

  // The current zipf op's sampler, bound when the op starts; its table is
  // shared process-wide per exact (window, s).
  std::optional<ZipfSampler> zipf_;

  bool started_ = false;
  bool finished_ = false;
  bool stop_requested_ = false;
  SimTime start_time_ = 0;
  SimTime finish_time_ = 0;
  std::vector<Milestone> milestones_;
  MarkerHook marker_hook_;
  obs::TraceRecorder* trace_ = nullptr;
  std::uint16_t trace_track_ = 0;
  bool trace_guest_ = false;  // trace_ set AND kCatGuest enabled
};

}  // namespace smartmem::core
