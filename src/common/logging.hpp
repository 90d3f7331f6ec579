// Leveled logging for the simulator. Defaults to Warn so tests and benches
// stay quiet; scenario tools raise it with --verbose.
//
// Messages carry a component tag and — when the running node has
// installed a simulated-time clock — a sim-time stamp:
//   [t=412.003s hyper] [warn] target for unknown VM 4 ignored
// The clock is thread-local, so parallel `--jobs` runs stamp each worker's
// log lines with that worker's own node time, and the whole line still goes
// out in one fprintf (no mid-line interleaving between workers).
#pragma once

#include <string>

#include "common/types.hpp"

namespace smartmem::log {

enum class Level { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Component tag prefixed to log lines. kGeneric formats an untagged line.
enum class Component {
  kGeneric = 0,
  kSim,
  kTmem,
  kHyper,
  kGuest,
  kComm,
  kMm,
  kCore,
  kObs,
};

/// Sets the global threshold; messages below it are dropped.
void set_level(Level level);
Level level();

bool enabled(Level level);

/// Installs a simulated-time source for this thread's log lines; the ctx
/// pointer is passed back to `clock` on every call. nullptr clears. The
/// installer must clear (or replace) the clock before ctx dies.
using SimClockFn = SimTime (*)(const void* ctx);
void set_sim_clock(SimClockFn clock, const void* ctx);

/// True when this thread currently stamps log lines with simulated time.
bool has_sim_clock();

[[gnu::format(printf, 2, 3)]] void trace(Component component, const char* fmt,
                                         ...);
[[gnu::format(printf, 2, 3)]] void debug(Component component, const char* fmt,
                                         ...);
[[gnu::format(printf, 2, 3)]] void info(Component component, const char* fmt,
                                        ...);
[[gnu::format(printf, 2, 3)]] void warn(Component component, const char* fmt,
                                        ...);
[[gnu::format(printf, 2, 3)]] void error(Component component, const char* fmt,
                                         ...);

const char* level_name(Level level);
const char* component_name(Component component);

/// Builds the "[t=412.003s hyper] [warn] message" line exactly as it would
/// be printed (without the trailing newline). Exposed for tests.
std::string format_line(Level level, Component component,
                        const std::string& message);

}  // namespace smartmem::log
