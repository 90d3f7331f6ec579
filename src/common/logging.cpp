#include "common/logging.hpp"

#include <atomic>
#include <cstdarg>
#include <cstdio>

#include "common/strfmt.hpp"

namespace smartmem::log {
namespace {

std::atomic<Level> g_level{Level::kWarn};

// Thread-local so each parallel experiment worker stamps its own node's
// simulated time. Plain (non-atomic) is fine: set and read on one thread.
thread_local SimClockFn t_clock = nullptr;
thread_local const void* t_clock_ctx = nullptr;

void vwrite(Level lvl, Component component, const char* fmt,
            std::va_list args) {
  const std::string msg = vstrfmt(fmt, args);
  const std::string line = format_line(lvl, component, msg);
  // One fprintf keeps the line atomic across parallel --jobs workers.
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace

void set_level(Level lvl) { g_level.store(lvl, std::memory_order_relaxed); }

Level level() { return g_level.load(std::memory_order_relaxed); }

bool enabled(Level lvl) { return lvl >= level(); }

void set_sim_clock(SimClockFn clock, const void* ctx) {
  t_clock = clock;
  t_clock_ctx = clock != nullptr ? ctx : nullptr;
}

bool has_sim_clock() { return t_clock != nullptr; }

const char* level_name(Level lvl) {
  switch (lvl) {
    case Level::kTrace: return "trace";
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
    case Level::kOff: return "off";
  }
  return "?";
}

const char* component_name(Component component) {
  switch (component) {
    case Component::kGeneric: return "";
    case Component::kSim: return "sim";
    case Component::kTmem: return "tmem";
    case Component::kHyper: return "hyper";
    case Component::kGuest: return "guest";
    case Component::kComm: return "comm";
    case Component::kMm: return "mm";
    case Component::kCore: return "core";
    case Component::kObs: return "obs";
  }
  return "?";
}

std::string format_line(Level lvl, Component component,
                        const std::string& message) {
  const char* comp = component_name(component);
  const bool tagged = comp[0] != '\0';
  if (t_clock != nullptr) {
    const double t_s = to_seconds(t_clock(t_clock_ctx));
    if (tagged) {
      return strfmt("[t=%.3fs %s] [%s] %s", t_s, comp, level_name(lvl),
                    message.c_str());
    }
    return strfmt("[t=%.3fs] [%s] %s", t_s, level_name(lvl), message.c_str());
  }
  if (tagged) {
    return strfmt("[%s] [%s] %s", comp, level_name(lvl), message.c_str());
  }
  return strfmt("[%s] %s", level_name(lvl), message.c_str());
}

#define SMARTMEM_LOG_IMPL(name, lvl)                     \
  void name(Component component, const char* fmt, ...) { \
    if (!enabled(lvl)) return;                           \
    std::va_list args;                                   \
    va_start(args, fmt);                                 \
    vwrite(lvl, component, fmt, args);                   \
    va_end(args);                                        \
  }

SMARTMEM_LOG_IMPL(trace, Level::kTrace)
SMARTMEM_LOG_IMPL(debug, Level::kDebug)
SMARTMEM_LOG_IMPL(info, Level::kInfo)
SMARTMEM_LOG_IMPL(warn, Level::kWarn)
SMARTMEM_LOG_IMPL(error, Level::kError)

#undef SMARTMEM_LOG_IMPL

}  // namespace smartmem::log
