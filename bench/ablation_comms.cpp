// Ablation: the control-plane fabric (src/comm).
//
// The paper's management loop rides VIRQ -> netlink -> hypercall hops, so
// every decision acts on data roughly one sampling interval stale. This
// bench quantifies how much staleness and delivery faults actually cost:
// it sweeps the uplink latency at x{1, 10, 100} of its base value (the base
// is sample_interval / 40, so x40 would be exactly one sampling interval —
// the paper's worst case — and x100 leaves ~2.5 samples in flight, enough
// to make the capacity-2 queue bind and the two queue policies diverge)
// crossed with per-hop fault rates {0, 1%, 10%} (loss and duplication each,
// so the sequence-rejection path is exercised end-to-end), once per
// bounded-queue policy, and prints the mean VM runtime delta against the
// fault-free baseline plus the channel and stale-sequence counters that
// explain it.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace smartmem;

struct Cell {
  comm::QueuePolicy policy = comm::QueuePolicy::kDropNewest;
  double lat_x = 1.0;
  double loss = 0.0;
  std::size_t queue = 0;  // 0 = unbounded (the baseline wiring)
  bool ack = false;       // TKM downlink target ack/retry
  bool suppress = true;   // MM suppression of unchanged target vectors
  mm::StaleMode stale = mm::StaleMode::kOff;  // smart-alloc staleness mode
  bool adaptive = false;  // MM-driven dynamic sampling interval
};

/// Counters from one seeded run (runtimes are one entry per VM).
struct RepResult {
  std::vector<double> runtimes;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;          // loss + queue + down, both hops
  std::uint64_t stale = 0;            // MM + hypervisor sequence rejects
  std::uint64_t retransmits = 0;      // TKM ack-timeout target resends
  std::uint64_t stale_decisions = 0;  // decisions skipped/widened for age
  std::uint64_t ivl_changes = 0;      // accepted interval retunes
};

RepResult run_rep(const core::ScenarioSpec& spec, const bench::Options& opts,
                  const Cell& cell, std::uint64_t seed) {
  core::NodeConfig cfg = core::scaled_node_defaults(opts.scale);
  const auto base = static_cast<double>(cfg.sample_interval) / 40.0;
  cfg.comm.uplink.latency = static_cast<SimTime>(base * cell.lat_x);
  cfg.comm.uplink.faults.loss_rate = cell.loss;
  cfg.comm.uplink.faults.duplication_rate = cell.loss;
  cfg.comm.downlink.faults.loss_rate = cell.loss;
  cfg.comm.downlink.faults.duplication_rate = cell.loss;
  cfg.comm.uplink.queue_capacity = cell.queue;
  cfg.comm.downlink.queue_capacity = cell.queue;
  cfg.comm.uplink.queue_policy = cell.policy;
  cfg.comm.downlink.queue_policy = cell.policy;
  cfg.comm.ack_targets = cell.ack;
  cfg.mm_suppress_unchanged = cell.suppress;
  cfg.adaptive_interval.enabled = cell.adaptive;

  mm::PolicySpec policy = mm::PolicySpec::smart(6.0);
  policy.smart_config.stale_mode = cell.stale;

  auto node = core::build_node(spec, policy, seed, &cfg);
  node->run(spec.deadline);

  RepResult r;
  for (VmId id : node->vm_ids()) {
    r.runtimes.push_back(to_seconds(node->runner(id).finish_time() -
                                    node->runner(id).start_time()));
  }
  const comm::ChannelStats& up = node->tkm()->uplink().stats();
  const comm::ChannelStats& down = node->tkm()->downlink().stats();
  r.delivered = up.delivered + down.delivered;
  r.dropped = up.dropped_loss + up.dropped_queue + up.dropped_down +
              down.dropped_loss + down.dropped_queue + down.dropped_down;
  r.stale = node->manager()->stale_samples_dropped() +
            node->hypervisor().stale_targets_dropped();
  r.retransmits = node->tkm()->target_retransmits();
  r.stale_decisions = node->manager()->policy().stale_decisions();
  if (const auto* ctl = node->manager()->interval_controller()) {
    r.ivl_changes = ctl->changes();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smartmem;
  const auto opts = bench::parse_options(
      argc, argv, {"--scale", "--reps", "--seed", "--jobs"});
  const core::ScenarioSpec spec = core::scenario2(opts.scale);

  std::printf("=== ablation: control-plane latency & faults "
              "(scenario 2, smart P=6%%) ===\n");
  std::printf("uplink base latency = sample_interval/40: x40 = one interval\n");
  std::printf("stale (the paper's ~1 s path), x100 keeps ~2.5 samples in\n");
  std::printf("flight so the capacity-2 queue binds. 'flt' injects loss AND\n");
  std::printf("duplication at the given rate on both hops; 'stale' counts\n");
  std::printf("sequence-rejected deliveries (duplicates caught end-to-end).\n\n");

  // Cell 0 is the fault-free baseline every delta is measured against; the
  // grid proper is policy x latency x loss with a capacity-2 queue.
  std::vector<Cell> cells;
  cells.push_back(Cell{});
  const comm::QueuePolicy policies[] = {comm::QueuePolicy::kDropNewest,
                                        comm::QueuePolicy::kDropOldest};
  for (const auto policy : policies) {
    for (const double lat_x : {1.0, 10.0, 100.0}) {
      for (const double loss : {0.0, 0.01, 0.10}) {
        cells.push_back(Cell{policy, lat_x, loss, 2});
      }
    }
  }

  // Second grid: downlink target ack/retry x MM suppression under loss
  // (unbounded queue, base latency). With suppression on, a lost target
  // vector is NOT repaired by the next interval — the MM sees an unchanged
  // vector and stays silent — so the hypervisor can run on a stale target
  // for many intervals unless the TKM retransmits; with suppression off the
  // periodic resend masks loss at the cost of redundant hypercalls.
  const std::size_t ack_grid_start = cells.size();
  for (const bool suppress : {true, false}) {
    for (const bool ack : {false, true}) {
      for (const double loss : {0.01, 0.10}) {
        Cell cell;
        cell.loss = loss;
        cell.ack = ack;
        cell.suppress = suppress;
        cells.push_back(cell);
      }
    }
  }

  // Third grid: the adaptive control plane against exactly the staleness
  // regime that hurts the fixed loop. drop-oldest at x100 latency keeps
  // ~2.5 samples in flight; a capacity-3 queue is the livelock point where
  // messages survive but every delivery is perpetually ~2.5 intervals old.
  // (Capacity 2 is total starvation — nothing is ever delivered, so no
  // controller can help; the integration test pins that separately.) Stale
  // modes let smart-alloc skip or widen decisions on old samples, and the
  // adaptive interval stretches the cadence until deliveries stop queueing.
  const std::size_t adaptive_grid_start = cells.size();
  for (const double lat_x : {40.0, 100.0}) {
    for (const auto stale :
         {mm::StaleMode::kOff, mm::StaleMode::kSkip, mm::StaleMode::kWiden}) {
      for (const bool adaptive : {false, true}) {
        Cell cell;
        cell.policy = comm::QueuePolicy::kDropOldest;
        cell.lat_x = lat_x;
        cell.queue = 3;
        cell.stale = stale;
        cell.adaptive = adaptive;
        cells.push_back(cell);
      }
    }
  }

  // Every (cell, rep) run is independent; fan the whole grid out and
  // aggregate in deterministic order afterwards.
  const std::size_t reps = opts.repetitions;
  std::vector<RepResult> runs(cells.size() * reps);
  parallel_for_each(opts.jobs, runs.size(), [&](std::size_t i) {
    runs[i] = run_rep(spec, opts, cells[i / reps],
                      opts.base_seed + (i % reps));
  });

  std::vector<RunningStats> runtime(cells.size());
  std::vector<RepResult> totals(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const RepResult& r = runs[c * reps + rep];
      for (const double t : r.runtimes) runtime[c].add(t);
      totals[c].delivered += r.delivered;
      totals[c].dropped += r.dropped;
      totals[c].stale += r.stale;
      totals[c].retransmits += r.retransmits;
      totals[c].stale_decisions += r.stale_decisions;
      totals[c].ivl_changes += r.ivl_changes;
    }
  }

  const double baseline = runtime[0].mean();
  std::printf("baseline (lat x1, loss 0, unbounded): mean VM runtime %.2f s "
              "over %zu rep(s)\n", baseline, reps);

  std::size_t c = 1;
  for (const auto policy : policies) {
    std::printf("\n--- queue policy: %s (capacity 2) ---\n",
                comm::to_string(policy));
    std::printf("%-8s %-6s %12s %8s %10s %9s %7s\n", "lat", "flt",
                "mean VM (s)", "delta", "delivered", "dropped", "stale");
    for (int grid = 0; grid < 9; ++grid, ++c) {
      const Cell& cell = cells[c];
      const double mean = runtime[c].mean();
      const double delta =
          baseline > 0 ? (mean - baseline) / baseline * 100.0 : 0.0;
      std::printf("x%-7g %-6g %12.2f %+7.1f%% %10llu %9llu %7llu\n",
                  cell.lat_x, cell.loss, mean, delta,
                  static_cast<unsigned long long>(totals[c].delivered / reps),
                  static_cast<unsigned long long>(totals[c].dropped / reps),
                  static_cast<unsigned long long>(totals[c].stale / reps));
    }
  }

  std::printf("\n--- downlink target ack/retry x MM suppression "
              "(lat x1, unbounded queue) ---\n");
  std::printf("%-9s %-5s %-6s %12s %8s %10s %9s %6s\n", "suppress", "ack",
              "flt", "mean VM (s)", "delta", "delivered", "retx", "stale");
  for (c = ack_grid_start; c < adaptive_grid_start; ++c) {
    const Cell& cell = cells[c];
    const double mean = runtime[c].mean();
    const double delta =
        baseline > 0 ? (mean - baseline) / baseline * 100.0 : 0.0;
    std::printf("%-9s %-5s %-6g %12.2f %+7.1f%% %10llu %9llu %6llu\n",
                cell.suppress ? "on" : "off", cell.ack ? "on" : "off",
                cell.loss, mean, delta,
                static_cast<unsigned long long>(totals[c].delivered / reps),
                static_cast<unsigned long long>(totals[c].retransmits / reps),
                static_cast<unsigned long long>(totals[c].stale / reps));
  }

  std::printf("\n--- adaptive control plane at the staleness cliff "
              "(drop-oldest, capacity 3, loss 0) ---\n");
  std::printf("%-8s %-7s %-9s %12s %8s %10s %9s %8s\n", "lat", "stale",
              "adaptive", "mean VM (s)", "delta", "delivered", "skipped",
              "retunes");
  for (c = adaptive_grid_start; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const double mean = runtime[c].mean();
    const double delta =
        baseline > 0 ? (mean - baseline) / baseline * 100.0 : 0.0;
    std::printf(
        "x%-7g %-7s %-9s %12.2f %+7.1f%% %10llu %9llu %8llu\n", cell.lat_x,
        mm::to_string(cell.stale), cell.adaptive ? "on" : "off", mean, delta,
        static_cast<unsigned long long>(totals[c].delivered / reps),
        static_cast<unsigned long long>(totals[c].stale_decisions / reps),
        static_cast<unsigned long long>(totals[c].ivl_changes / reps));
  }
  return 0;
}
