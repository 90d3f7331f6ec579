// Fan-out of independent seeded simulation runs over a few threads.
//
// The experiment grids (repetitions x policies x scenarios) are embarrassingly
// parallel: every run is a pure function of its seed and shares no mutable
// state with its siblings. The determinism story therefore lives in the
// callers: fn(i) writes its result into a pre-sized slot indexed by i, never
// by completion order, and all reading/printing happens after
// parallel_for_each() returns.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace smartmem {

/// Resolves a user-facing jobs knob: 0 -> hardware_concurrency (>= 1).
inline std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs fn(i) for i in [0, count). jobs <= 1 runs inline on the calling
/// thread, in index order — the serial path stays byte-identical to
/// pre-parallel behaviour. Otherwise at most min(jobs, count) threads pull
/// indices; every index runs even after one throws, and the exception of the
/// lowest failing index is rethrown once all have finished, so no thread is
/// left touching caller state. jobs == 0 uses every hardware thread.
template <typename Fn>
void parallel_for_each(std::size_t jobs, std::size_t count, Fn&& fn) {
  jobs = resolve_jobs(jobs);
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthread joins on scope exit, also when a later thread fails to start.
    std::vector<std::jthread> threads(std::min(jobs, count));
    for (auto& t : threads) t = std::jthread(drain);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace smartmem
