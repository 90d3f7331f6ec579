// perfbench runner: runs one benchmark workload of the SmarTmem simulator in
// this single-threaded process and prints one raw JSON document on stdout.
//
// The runner only measures and records; run.py derives the metrics from the
// document and checks the outputs. Every call into the library goes through
// a public entry point (core::build_node, VirtualNode,
// cluster::run_fleet_scenario) and reads only the counters and probes those
// already expose, so the library is measured exactly as a user calls it.
//
// A workload is a fixed batch of simulation cells. The runner runs a
// warm-up batch and then --batches measured ones, and records every batch:
// host timings, simulated counters (which must repeat exactly) and, for
// traced batches, spans around each library call. Between cells it runs
// slices of a fixed reference kernel, so each batch also records how fast
// this machine was while the batch ran. A process does a fixed amount of
// work because the simulator slows down as the process ages: run.py starts
// as many processes as fit in the run, so every run measures the same mix
// of fresh and aged batches whatever the machine's speed.
//
// Usage: perfbench_runner --workload <name> --seed <n> --batches <n>
//                         --trace <0|1> [--geometry full|tiny]
// Workloads: node, fleet-lending. The tiny geometry is a seconds-long
// version of each workload for the benchmark's own tests.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <memory_resource>
#include <queue>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/fleet.hpp"
#include "common/logging.hpp"
#include "core/scenario.hpp"
#include "core/virtual_node.hpp"
#include "mm/policy_factory.hpp"

namespace {

using namespace smartmem;

// ---- Clocks -----------------------------------------------------------------

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process, in KiB. VmHWM belongs to the address
/// space exec created; getrusage's ru_maxrss would also carry the peak of
/// the Python process that started the runner across fork and exec.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---- Reference kernel -------------------------------------------------------

/// A fixed piece of work, independent of the library, whose run time says
/// how fast this machine is at the moment. On a shared host the simulator's
/// speed moves by up to 2x within minutes as other tenants take the shared
/// cache; a tight ALU loop or a pointer chase that always misses barely
/// moves. This kernel has the simulator's kind of traffic instead: a binary
/// heap of pending events and a node-based hash map keyed by them, about
/// 2 MiB together, so it misses and allocates where the simulator does.
/// Its map allocates from a pool of its own, so the simulator's heap does
/// not change the kernel's layout. Slices of it run between cells on the
/// same thread, and the benchmark divides a batch's time by its slices'.
class Reference {
 public:
  /// Iterations per slice: about 2 ms on the measuring machine.
  static constexpr int kSliceIters = 4096;

  Reference() : rng_(0x5eed), map_(&pool_) {
    for (int i = 0; i < kEvents; ++i) {
      heap_.push({rng_() % kHorizon, rng_() % kKeys});
      map_.emplace(rng_() % kKeys, rng_());
    }
    // Let the map reach the size it keeps from then on.
    for (int i = 0; i < 16; ++i) iterate(kSliceIters);
  }

  /// Runs `slices` slices and adds their wall and CPU time to the totals.
  void run(int slices) {
    const std::int64_t t0 = wall_ns();
    const double c0 = cpu_s();
    iterate(slices * kSliceIters);
    wall_ns_ += wall_ns() - t0;
    cpu_s_ += cpu_s() - c0;
    iters_ += static_cast<std::uint64_t>(slices) * kSliceIters;
  }

  double wall_s() const { return static_cast<double>(wall_ns_) / 1e9; }
  double cpu_s_total() const { return cpu_s_; }
  std::uint64_t iters() const { return iters_; }

 private:
  static constexpr int kEvents = 20000;
  static constexpr std::uint64_t kKeys = 100000;
  static constexpr std::uint64_t kHorizon = 1000000;

  struct Event {
    std::uint64_t time;
    std::uint64_t key;
    bool operator>(const Event& o) const { return time > o.time; }
  };

  /// Pops the earliest event, reschedules it and toggles its key in the map.
  void iterate(int n) {
    for (int i = 0; i < n; ++i) {
      Event e = heap_.top();
      heap_.pop();
      e.time += rng_() % 5000;
      heap_.push(e);
      if (const auto it = map_.find(e.key); it != map_.end()) {
        map_.erase(it);
      } else {
        map_.emplace(e.key, e.time);
      }
    }
  }

  std::mt19937_64 rng_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::int64_t wall_ns_ = 0;
  double cpu_s_ = 0.0;
  std::uint64_t iters_ = 0;
};

// ---- Records ----------------------------------------------------------------

/// Named numbers in insertion order (counts are exact in a double up to 2^53).
using Fields = std::vector<std::pair<std::string, double>>;

/// One span of a traced batch. Spans the runner times itself carry a start;
/// spans taken from a library probe (MM decide time, engine profiler) carry
/// only a duration and hang under the span of the call that ran them.
struct Span {
  std::string name;
  int parent = -1;
  double ns = 0.0;
  std::int64_t start_ns = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int open(const char* name, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, parent, 0.0, wall_ns()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) {
    if (span < 0) return;
    spans_[static_cast<std::size_t>(span)].ns =
        static_cast<double>(wall_ns() - spans_[static_cast<std::size_t>(span)].start_ns);
  }
  int probe(const char* name, int parent, double ns) {
    if (!on_) return -1;
    spans_.push_back({name, parent, ns, -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

struct Cell {
  std::string label;
  Fields sim;               // simulated outcome: must repeat exactly
  std::vector<Fields> vms;  // per-VM simulated counters
  Fields host;              // host-time probes that are not spans
};

struct Batch {
  bool warmup = false;
  bool traced = false;
  double wall_s = 0.0;  // the cells only: reference slices excluded
  double cpu_s = 0.0;
  double ref_wall_s = 0.0;  // the reference slices run between the cells
  double ref_cpu_s = 0.0;
  double ref_iters = 0.0;
  std::vector<Cell> cells;
  std::vector<Span> spans;
};

// ---- JSON -------------------------------------------------------------------

class JsonWriter {
 public:
  void open(char c) {
    sep();
    out_ += c;
    first_ = true;
  }
  void close(char c) {
    out_ += c;
    first_ = false;
  }
  void key(const std::string& k) {
    sep();
    str(k);
    out_ += ':';
    first_ = true;
  }
  void value(double v) {
    sep();
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void value(const std::string& s) {
    sep();
    str(s);
  }
  void value(bool b) {
    sep();
    out_ += b ? "true" : "false";
  }
  template <typename T>
  void field(const std::string& k, const T& v) {
    key(k);
    value(v);
  }
  void fields(const std::string& k, const Fields& f) {
    key(k);
    open('{');
    for (const auto& [name, v] : f) field(name, v);
    close('}');
  }
  const std::string& str() const { return out_; }

 private:
  void sep() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void str(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
};

// ---- Workloads --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int batches = 1;
  bool trace = false;
  bool tiny = false;
};

/// Common interface of the workloads: one batch of cells, plus the
/// parameters that identify it in the result's provenance.
///
/// A batch runs every cell on several consecutive seeds: the simulated
/// outcomes move with the seed (the tiered cells' failed-put share by a
/// fifth between single seeds, a fleet's by a tenth), and the mean of four seeds
/// keeps the run-to-run spread of the simulated metrics small. Different
/// --seed values get disjoint seed sets.
class Workload {
 public:
  Workload(std::uint64_t seed, std::uint64_t seeds_per_batch) {
    for (std::uint64_t i = 0; i < seeds_per_batch; ++i) {
      seeds_.push_back(seed * seeds_per_batch + i);
    }
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual Fields params() const = 0;
  /// Runs the whole batch, with reference slices between its cells;
  /// `profile` turns on the library's own engine profiler (fleet only),
  /// `spans` records the runner's spans.
  virtual void run_batch(Batch& batch, bool profile, SpanLog& spans,
                         Reference& ref) = 0;
  /// A few set-up samples: each is the host time to construct every node or
  /// cluster of the batch. Taken between batches, never inside one.
  virtual std::vector<double> setup_samples() = 0;

 protected:
  const std::vector<std::uint64_t>& seeds() const { return seeds_; }
  Fields seed_params() const {
    return {{"seeds_per_batch", static_cast<double>(seeds_.size())},
            {"first_cell_seed", static_cast<double>(seeds_.front())}};
  }

 private:
  std::vector<std::uint64_t> seeds_;
};

/// The paper's evaluation on one node: the four Table II scenarios under
/// greedy, static-alloc, reconf-static and smart-alloc P = 2 %, each run
/// twice: with DRAM tmem only ("dram", the paper's setup) and with half the
/// DRAM tmem plus a compressed pool of half the remaining DRAM bytes, the
/// control plane in byte units ("tiered").
class NodeWorkload final : public Workload {
 public:
  NodeWorkload(std::uint64_t seed, bool tiny) : Workload(seed, tiny ? 2 : 4) {
    policies_ = {mm::PolicySpec::greedy(), mm::PolicySpec::static_alloc(),
                 mm::PolicySpec::reconf_static(), mm::PolicySpec::smart(2.0)};
    for (const bool tiered : {false, true}) {
      for (core::ScenarioSpec spec : core::all_scenarios(kScale)) {
        core::NodeConfig cfg = core::scaled_node_defaults(kScale);
        if (tiered) {
          spec.tmem_pages /= 2;
          cfg.compressed_pool_bytes = spec.tmem_pages * kPageSize / 2;
          cfg.compressed_evict_demote = true;
          cfg.capacity_units = CapacityUnits::kBytes;
        }
        spec.name = std::string(tiered ? "tiered/" : "dram/") + spec.name;
        scenarios_.push_back(std::move(spec));
        configs_.push_back(cfg);
      }
    }
  }

  Fields params() const override {
    Fields f = {{"scale", kScale},
                {"scenarios", static_cast<double>(scenarios_.size())},
                {"policies", static_cast<double>(policies_.size())},
                {"smart_p_percent", 2.0},
                {"tiered_dram_tmem_fraction", 0.5},
                {"tiered_compressed_pool_fraction_of_dram", 0.5}};
    for (auto& kv : seed_params()) f.push_back(std::move(kv));
    return f;
  }

  /// One reference slice after every cell (a cell takes 10-60 ms).
  void run_batch(Batch& batch, bool /*profile*/, SpanLog& spans,
                 Reference& ref) override {
    const int root = spans.open("bench.batch", -1);
    for (const std::uint64_t seed : seeds()) {
      for (std::size_t s = 0; s < scenarios_.size(); ++s) {
        for (const mm::PolicySpec& policy : policies_) {
          batch.cells.push_back(
              run_cell(scenarios_[s], configs_[s], policy, seed, spans, root));
          const int span = spans.open("bench.ref", root);
          ref.run(1);
          spans.close(span);
        }
      }
    }
    spans.close(root);
  }

  /// One sample builds the node of every cell. That takes milliseconds, so
  /// each call takes several samples.
  std::vector<double> setup_samples() override {
    std::vector<double> out;
    for (int i = 0; i < 5; ++i) {
      double ns = 0;
      for (const std::uint64_t seed : seeds()) {
        for (std::size_t s = 0; s < scenarios_.size(); ++s) {
          for (const mm::PolicySpec& policy : policies_) {
            const std::int64_t t0 = wall_ns();
            auto node = core::build_node(scenarios_[s], policy, seed, &configs_[s]);
            ns += static_cast<double>(wall_ns() - t0);
          }
        }
      }
      out.push_back(ns / 1e9);
    }
    return out;
  }

 private:
  Cell run_cell(const core::ScenarioSpec& spec, const core::NodeConfig& cfg,
                const mm::PolicySpec& policy, std::uint64_t seed,
                SpanLog& spans, int root) {
    Cell cell;
    cell.label = spec.name + "/" + policy.label() + "/seed" + std::to_string(seed);

    int span = spans.open("core.build", root);
    std::unique_ptr<core::VirtualNode> node =
        core::build_node(spec, policy, seed, &cfg);
    spans.close(span);

    span = spans.open("core.run", root);
    node->start();
    const SimTime end = node->run(spec.deadline);
    spans.close(span);
    if (const mm::MemoryManager* mgr = node->manager()) {
      spans.probe("mm.decide", span, static_cast<double>(mgr->decide_ns_total()));
    }

    span = spans.open("core.collect", root);
    collect(*node, end, cell);
    node.reset();
    spans.close(span);
    return cell;
  }

  static void collect(core::VirtualNode& node, SimTime end, Cell& cell) {
    const hyper::Hypervisor& hyp = node.hypervisor();
    const tmem::StoreStats& st = hyp.store().stats();
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    double node_bytes = 0, delivered = 0, dropped = 0;
    if (const guest::Tkm* tkm = node.tkm()) {
      const comm::ChannelStats& up = tkm->uplink().stats();
      const comm::ChannelStats& down = tkm->downlink().stats();
      node_bytes = d(up.payload_bytes + down.payload_bytes);
      dropped = d(up.dropped_loss + up.dropped_down + up.dropped_queue +
                  down.dropped_loss + down.dropped_down + down.dropped_queue);
    }
    double decides = 0, targets_sent = 0, suppressed = 0;
    if (const mm::MemoryManager* mgr = node.manager()) {
      delivered = d(mgr->samples_seen());
      decides = d(mgr->decide_count());
      targets_sent = d(mgr->targets_sent());
      suppressed = d(mgr->sends_suppressed());
    }

    // Every VM's virtual disk may be the one shared device; count each
    // device once.
    std::set<const sim::DiskDevice*> disks;
    double disk_reads = 0, disk_wait_ns = 0;
    for (VmId vm : node.vm_ids()) {
      const sim::DiskDevice* disk = &node.disk(vm);
      if (!disks.insert(disk).second) continue;
      disk_reads += d(disk->stats().reads);
      disk_wait_ns += disk->stats().read_queue_delay_ns.sum();
    }

    cell.sim = {
        {"end_time_s", to_seconds(end)},
        {"interval_s", to_seconds(node.config().sample_interval)},
        {"events", d(node.simulator().executed_events())},
        {"node_bytes", node_bytes},
        {"rack_bytes", 0.0},
        {"msgs_delivered", delivered},
        {"msgs_dropped", dropped},
        {"mm_decides", decides},
        {"mm_targets_sent", targets_sent},
        {"mm_sends_suppressed", suppressed},
        {"disk_reads", disk_reads},
        {"disk_read_wait_ns", disk_wait_ns},
        {"store_puts_stored", d(st.puts_stored)},
        {"store_gets_hit", d(st.gets_hit)},
        {"store_gets_hit_dram", d(st.gets_hit_dram)},
        {"store_gets_hit_compressed", d(st.gets_hit_compressed)},
        {"store_gets_hit_nvm", d(st.gets_hit_nvm)},
        {"store_ephemeral_evictions", d(st.ephemeral_evictions)},
        {"store_peak_used", d(st.peak_used)},
        {"store_compressed_stored", d(st.compressed_stored)},
        {"pool_peak_bytes", d(hyp.store().compressed_pool().peak_bytes())},
    };
    for (VmId vm : node.vm_ids()) {
      const core::VcpuRunner& runner = node.runner(vm);
      const hyper::VmData& vd = hyp.vm_data(vm);
      const guest::GuestStats& gs = node.kernel(vm).stats();
      cell.vms.push_back({
          {"runtime_s", to_seconds(runner.finish_time() - runner.start_time())},
          {"puts_total", d(vd.cumul_puts_total)},
          {"puts_succ", d(vd.cumul_puts_succ)},
          {"puts_failed", d(vd.cumul_puts_failed)},
          {"gets_total", d(vd.cumul_gets_total)},
          {"gets_hit", d(vd.cumul_gets_hit)},
          {"flushes", d(vd.cumul_flushes)},
          {"targets_applied", d(vd.targets_applied)},
          {"swapouts_tmem", d(gs.swapouts_tmem)},
          {"swapins_tmem", d(gs.swapins_tmem)},
          {"swapins_disk", d(gs.swapins_disk)},
          {"touches", d(gs.touches)},
          {"faults", d(gs.faults)},
          {"reclaim_runs", d(gs.reclaim_runs)},
          {"pages_reclaimed", d(gs.pages_reclaimed)},
      });
    }
  }

  // 8 MiB VMs: a 128-cell batch takes 3-5 s.
  static constexpr double kScale = 1.0 / 128;

  std::vector<mm::PolicySpec> policies_;
  std::vector<core::ScenarioSpec> scenarios_;
  std::vector<core::NodeConfig> configs_;
};

/// 64 nodes x 16 tenants in the lending-heavy geometry with the async lend
/// fabric and a 64-page borrower cache; every other knob is the
/// FleetExperimentConfig default. One engine worker.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, bool tiny) : Workload(seed, tiny ? 2 : 4) {
    cfg_.nodes = tiny ? 4 : 64;
    cfg_.vms_per_node = tiny ? 4 : 16;
    cfg_.lending_heavy = true;
    cfg_.lending_async.enabled = true;
    cfg_.lending_async.cache_pages = 64;
    cfg_.scale = 1.0 / 16;
    cfg_.sim_threads = 1;
  }

  Fields params() const override {
    Fields f = {{"nodes", static_cast<double>(cfg_.nodes)},
                {"vms_per_node", static_cast<double>(cfg_.vms_per_node)},
                {"scale", cfg_.scale},
                {"cache_pages", static_cast<double>(cfg_.lending_async.cache_pages)},
                {"sim_threads", static_cast<double>(cfg_.sim_threads)}};
    for (auto& kv : seed_params()) f.push_back(std::move(kv));
    return f;
  }

  /// Reference slices after every fleet, a few per cent of its time like
  /// on the node workload (a fleet takes about 2 s).
  void run_batch(Batch& batch, bool profile, SpanLog& spans,
                 Reference& ref) override {
    const int root = spans.open("bench.batch", -1);
    for (const std::uint64_t seed : seeds()) {
      cluster::FleetExperimentConfig cfg = cfg_;
      cfg.seed = seed;
      cfg.profile = profile;
      const int run = spans.open("core.run", root);
      const cluster::FleetRunResult r = cluster::run_fleet_scenario(cfg);
      spans.close(run);
      const int collect_span = spans.open("core.collect", root);
      batch.cells.push_back(collect(r, cfg.seed, profile));
      spans.close(collect_span);
      if (profile) {
        spans.probe("sim.engine.hook", run, r.engine_hook_ms * 1e6);
        spans.probe("sim.engine.drain", run, r.engine_drain_ms * 1e6);
        const int busy = spans.probe("sim.engine.shard_busy", run, busy_ms(r) * 1e6);
        spans.probe("mm.decide", busy, static_cast<double>(r.mm_decide_ns));
      }
      const int span = spans.open("bench.ref", root);
      ref.run(kFleetSlices);
      spans.close(span);
    }
    spans.close(root);
  }

  /// The fleet API builds, runs and tears down in one call, so a sample
  /// times that call capped at 1 ns of simulated time, for every fleet of
  /// the batch. Past the cap the cluster stops its VMs and runs engine
  /// windows until every tenant, including those not yet arrived, has wound
  /// down. The engine profiler times those windows (shard busy time, hook
  /// and drain) and the sample leaves them out: what remains is
  /// construction, rack wiring, teardown and the engine's loop between
  /// windows.
  std::vector<double> setup_samples() override {
    // The capped run warns that its VMs did not finish, which is the point.
    const log::Level level = log::level();
    log::set_level(log::Level::kError);
    std::vector<double> out;
    for (int sample = 0; sample < 3; ++sample) {
      double ns = 0;
      for (const std::uint64_t seed : seeds()) {
        cluster::FleetExperimentConfig cfg = cfg_;
        cfg.seed = seed;
        cfg.deadline_cap = 1;
        cfg.profile = true;
        const std::int64_t t0 = wall_ns();
        const cluster::FleetRunResult r = cluster::run_fleet_scenario(cfg);
        ns += static_cast<double>(wall_ns() - t0) -
              (busy_ms(r) + r.engine_hook_ms + r.engine_drain_ms) * 1e6;
      }
      out.push_back(ns / 1e9);
    }
    log::set_level(level);
    return out;
  }

 private:
  static double busy_ms(const cluster::FleetRunResult& r) {
    double ms = 0;
    for (const auto& row : r.profile) ms += row.busy_ms;
    return ms;
  }

  Cell collect(const cluster::FleetRunResult& r, std::uint64_t seed,
               bool profile) const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    Cell cell;
    cell.label = "fleet/seed" + std::to_string(seed);
    cell.sim = {
        {"end_time_s", r.makespan_s},
        {"interval_s",
         to_seconds(core::scaled_node_defaults(cfg_.scale).sample_interval)},
        {"puts_total", d(r.puts_total)},
        {"puts_succ", d(r.puts_succ)},
        {"puts_failed", d(r.aggregate_failed_puts)},
        {"node_bytes", d(r.node_control_bytes)},
        {"rack_bytes", d(r.rack_control_bytes)},
        {"msgs_delivered", d(r.mm_samples)},
        {"mm_decides", d(r.mm_decides)},
        {"mm_targets_sent", d(r.mm_targets_sent)},
        {"gm_decisions", d(r.gm_decisions)},
        {"gm_clean_decides", d(r.gm_clean_decides)},
        {"gm_quotas_sent", d(r.quotas_sent)},
        {"lend_borrows", d(r.borrow_placements)},
        {"lend_failed_placements", d(r.lending_failed_placements)},
        {"lend_recalls", d(r.lending_recalls)},
        {"fabric_requests", d(r.fabric_requests)},
        {"fabric_retries", d(r.fabric_retries)},
        {"fabric_timeouts", d(r.fabric_timeouts)},
        {"fabric_give_ups", d(r.fabric_give_ups)},
        {"fabric_get_fallbacks", d(r.fabric_get_fallbacks)},
        {"fabric_put_rtt_us", r.put_rtt_mean_us},
        {"fabric_get_rtt_us", r.get_rtt_mean_us},
        {"fabric_get_rtt_count", d(r.get_rtt_count)},
        {"cache_hits", d(r.cache_hits)},
        {"cache_misses", d(r.cache_misses)},
    };
    if (profile) {
      // Counts only the engine profiler exposes; simulated, so they repeat
      // exactly like the rest of `sim`.
      double events = 0;
      for (const auto& row : r.profile) events += d(row.events);
      cell.sim.push_back({"events", events});
      cell.sim.push_back({"engine_windows", d(r.engine_windows)});
      // Sum of per-window critical paths: it overlaps shard busy time, so
      // it is no span.
      cell.host = {{"engine_critical_path_ns", r.engine_window_wall_ms * 1e6}};
    }
    return cell;
  }

  static constexpr int kFleetSlices = 48;

  cluster::FleetExperimentConfig cfg_;
};

// ---- Main -------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload node|fleet-lending "
               "--seed <n> --batches <n> --trace 0|1 "
               "[--geometry full|tiny]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("bad --seed " + val);
    } else if (arg == "--batches") {
      const long n = std::strtol(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || n < 1 || n > 1000) {
        usage("bad --batches " + val);
      }
      o.batches = static_cast<int>(n);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace " + val);
      o.trace = val == "1";
    } else if (arg == "--geometry") {
      if (val != "full" && val != "tiny") usage("bad --geometry " + val);
      o.tiny = val == "tiny";
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "node") {
    return std::make_unique<NodeWorkload>(o.seed, o.tiny);
  }
  if (o.workload == "fleet-lending") {
    return std::make_unique<FleetWorkload>(o.seed, o.tiny);
  }
  usage("unknown workload " + o.workload);
}

Batch timed_batch(Workload& w, Reference& ref, bool warmup, bool traced,
                  bool profile) {
  Batch batch;
  batch.warmup = warmup;
  batch.traced = traced;
  SpanLog spans(traced);
  const double ref_wall0 = ref.wall_s(), ref_cpu0 = ref.cpu_s_total();
  const std::uint64_t ref_iters0 = ref.iters();
  const double c0 = cpu_s();
  const std::int64_t t0 = wall_ns();
  w.run_batch(batch, profile, spans, ref);
  const double wall = static_cast<double>(wall_ns() - t0) / 1e9;
  const double cpu = cpu_s() - c0;
  batch.ref_wall_s = ref.wall_s() - ref_wall0;
  batch.ref_cpu_s = ref.cpu_s_total() - ref_cpu0;
  batch.ref_iters = static_cast<double>(ref.iters() - ref_iters0);
  batch.wall_s = wall - batch.ref_wall_s;
  batch.cpu_s = cpu - batch.ref_cpu_s;
  batch.spans = spans.spans();
  return batch;
}

void write_batch(JsonWriter& j, const Batch& b) {
  j.open('{');
  j.field("warmup", b.warmup);
  j.field("traced", b.traced);
  j.field("wall_s", b.wall_s);
  j.field("cpu_s", b.cpu_s);
  j.field("ref_wall_s", b.ref_wall_s);
  j.field("ref_cpu_s", b.ref_cpu_s);
  j.field("ref_iters", b.ref_iters);
  j.key("cells");
  j.open('[');
  for (const Cell& c : b.cells) {
    j.open('{');
    j.field("label", c.label);
    j.fields("sim", c.sim);
    j.key("vms");
    j.open('[');
    for (const Fields& vm : c.vms) {
      j.open('{');
      for (const auto& [name, v] : vm) j.field(name, v);
      j.close('}');
    }
    j.close(']');
    j.fields("host", c.host);
    j.close('}');
  }
  j.close(']');
  j.key("spans");
  j.open('[');
  for (const Span& s : b.spans) {
    j.open('{');
    j.field("name", s.name);
    j.field("parent", static_cast<double>(s.parent));
    j.field("ns", s.ns);
    j.field("start_ns", static_cast<double>(s.start_ns));
    j.close('}');
  }
  j.close(']');
  j.close('}');
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  const bool fleet = o.workload == "fleet-lending";
  Reference ref;

  // Warm-up batch, outside the measured loop. On the fleet it runs with the
  // engine profiler, the only source of the event count.
  std::vector<Batch> batches;
  batches.push_back(timed_batch(*w, ref, true, false, fleet));

  // Measured batches back to back. A traced run alternates untraced and
  // traced batches so both see the same machine state; the traced ones run
  // the library's profiler too. Set-up samples are taken before the first
  // batch and after each one, so their median spans the same stretch of
  // host time as the batches' and not just one moment of it.
  std::vector<double> setup = w->setup_samples();
  for (int measured = 0; measured < o.batches; ++measured) {
    const bool traced = o.trace && measured % 2 == 1;
    batches.push_back(timed_batch(*w, ref, false, traced, traced));
    for (const double s : w->setup_samples()) setup.push_back(s);
  }

  const double peak_kib = peak_rss_kib();

  JsonWriter j;
  j.open('{');
  j.field("workload", o.workload);
  j.field("seed", static_cast<double>(o.seed));
  j.field("batches_per_process", static_cast<double>(o.batches));
  j.field("trace", o.trace);
  j.fields("params", w->params());
  j.field("build_type", std::string(PERFBENCH_BUILD_TYPE));
  j.field("compiler", std::string(__VERSION__));
  j.field("hardware_concurrency",
          static_cast<double>(std::thread::hardware_concurrency()));
  j.field("peak_rss_kib", peak_kib);
  j.key("setup_samples_s");
  j.open('[');
  for (const double s : setup) j.value(s);
  j.close(']');
  j.key("batches");
  j.open('[');
  for (const Batch& b : batches) write_batch(j, b);
  j.close(']');
  j.close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
