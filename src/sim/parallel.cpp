#include "sim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/strfmt.hpp"
#include "sim/profiler.hpp"

namespace smartmem::sim {

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ParallelEngine::ParallelEngine(Config config) : config_(config) {
  if (config_.lookahead <= 0) {
    throw std::invalid_argument(
        "ParallelEngine: lookahead must be positive (a zero-lookahead "
        "topology admits no safe window)");
  }
}

std::size_t ParallelEngine::add_shard(Simulator* sim) {
  if (sim == nullptr) {
    throw std::invalid_argument("ParallelEngine: null shard simulator");
  }
  shards_.push_back(Shard{sim, {}, {}, 0});
  for (Shard& s : shards_) s.outbox.resize(shards_.size());
  return shards_.size() - 1;
}

void ParallelEngine::post(std::size_t src, std::size_t dst, SimTime when,
                          std::function<void()> action) {
  Shard& s = shards_.at(src);
  std::vector<Staged>& box = s.outbox.at(dst);
  if (box.empty()) s.posted_to.push_back(dst);
  box.push_back(Staged{when, s.next_post_seq++, std::move(action)});
}

void ParallelEngine::set_barrier_hook(std::function<void(SimTime)> hook) {
  hook_ = std::move(hook);
}

void ParallelEngine::set_profiler(EngineProfiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) profiler_->resize(shards_.size());
}

void ParallelEngine::run_shard_window(std::size_t i, SimTime end) {
  Simulator* sim = shards_[i].sim;
  if (profiler_ == nullptr) {
    sim->run_window(end);
    return;
  }
  const std::uint64_t t0 = wall_ns();
  const std::uint64_t ev0 = sim->executed_events();
  sim->run_window(end);
  profiler_->record_shard_window(i, wall_ns() - t0,
                                 sim->executed_events() - ev0);
}

void ParallelEngine::drain_outboxes(SimTime end) {
  // Gather every staged delivery and impose the deterministic total order:
  // (deliver time, source shard, source sequence). Destination simulators
  // assign their tie-break sequence numbers in this order, so equal-time
  // deliveries on one shard always fire in the same relative order no
  // matter which source shard ran first in the window.
  struct Entry {
    SimTime when;
    std::size_t src;
    std::uint64_t seq;
    std::size_t dst;
    std::function<void()>* action;
  };
  std::vector<Entry> all;
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    Shard& s = shards_[src];
    for (const std::size_t dst : s.posted_to) {
      std::vector<Staged>& box = s.outbox[dst];
      if (profiler_ != nullptr) {
        profiler_->record_injections(src, dst, box.size());
      }
      for (Staged& st : box) {
        // The lookahead discipline guarantees nothing staged in a window is
        // due before the window's end; a violation means the message raced
        // events that already executed.
        if (st.when < end) {
          throw std::logic_error(strfmt(
              "ParallelEngine: delivery from shard %zu to shard %zu due at "
              "%lld, before the window end %lld (lookahead violated)",
              src, dst, static_cast<long long>(st.when),
              static_cast<long long>(end)));
        }
        all.push_back(Entry{st.when, src, st.seq, dst, &st.action});
      }
    }
  }
  if (all.empty()) return;
  std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (Entry& e : all) {
    shards_[e.dst].sim->schedule_at(e.when, std::move(*e.action));
    ++posted_;
  }
  for (Shard& s : shards_) {
    for (const std::size_t dst : s.posted_to) s.outbox[dst].clear();
    s.posted_to.clear();
  }
}

SimTime ParallelEngine::run(const std::function<bool()>& stop_when,
                            SimTime deadline) {
  if (shards_.empty()) {
    throw std::logic_error("ParallelEngine: run() with no shards");
  }
  SimTime global = 0;
  while (true) {
    // Next window starts at the globally earliest pending event — idle
    // stretches are skipped entirely.
    SimTime m = -1;
    for (Shard& s : shards_) {
      const SimTime t = s.sim->next_event_time();
      if (t >= 0 && (m < 0 || t < m)) m = t;
    }
    if (m < 0 || m >= deadline) {
      if (m >= 0) global = std::max(global, deadline);
      break;
    }
    const SimTime end = std::min(m + config_.lookahead, deadline);
    if (profiler_ != nullptr) {
      profiler_->resize(shards_.size());
      profiler_->begin_window(m, global);
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) run_shard_window(i, end);
    global = end;
    ++windows_;
    if (profiler_ != nullptr) {
      const std::uint64_t t0 = wall_ns();
      drain_outboxes(end);
      profiler_->add_drain_ns(wall_ns() - t0);
    } else {
      drain_outboxes(end);
    }
    if (hook_) {
      const std::uint64_t t0 = profiler_ != nullptr ? wall_ns() : 0;
      hook_(end);
      // The hook may itself stage deliveries (post() is legal between
      // windows). Inject them now: if one of them is the only remaining
      // work, the earliest-event scan above must be able to see it.
      drain_outboxes(end);
      if (profiler_ != nullptr) profiler_->add_hook_ns(wall_ns() - t0);
    }
    if (profiler_ != nullptr) profiler_->end_window();
    if (stop_when && stop_when()) break;
  }
  return global;
}

}  // namespace smartmem::sim
