#include "obs/trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/strfmt.hpp"

namespace smartmem::obs {

namespace {

struct CatName {
  std::uint32_t bit;
  const char* name;
};

constexpr CatName kCatNames[] = {
    {kCatTmem, "tmem"},   {kCatHyper, "hyper"},       {kCatComm, "comm"},
    {kCatMm, "mm"},       {kCatGuest, "guest"},       {kCatWorkload, "workload"},
    {kCatSim, "sim"},     {kCatCluster, "cluster"},
};

/// Formats a double for JSON: integral values print without a fraction so
/// counters stay readable; everything else keeps full precision.
std::string json_number(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v >= -9.0e15 && v <= 9.0e15) {
    return strfmt("%lld", static_cast<long long>(v));
  }
  return strfmt("%.17g", v);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool parse_categories(const std::string& text, std::uint32_t& out) {
  if (text.empty()) return false;
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string name = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    bool found = false;
    if (name == "all") {
      mask = kCatAll;
      found = true;
    } else {
      for (const auto& c : kCatNames) {
        if (name == c.name) {
          mask |= c.bit;
          found = true;
          break;
        }
      }
    }
    if (!found) return false;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  out = mask;
  return true;
}

const char* category_name(std::uint32_t bit) {
  for (const auto& c : kCatNames) {
    if (c.bit == bit) return c.name;
  }
  return "?";
}

TraceRecorder::TraceRecorder(TraceConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  // Power-of-two ring so the hot-path wrap is a mask instead of an integer
  // divide (push() is the single most frequent observability call).
  std::size_t cap = 1;
  while (cap < config_.capacity) cap <<= 1;
  ring_ = std::make_unique_for_overwrite<Event[]>(cap);
  ring_mask_ = cap - 1;
}

std::uint16_t TraceRecorder::register_track(const std::string& process,
                                            const std::string& thread) {
  auto [it, inserted] =
      pids_.emplace(process, static_cast<std::uint32_t>(pids_.size() + 1));
  tracks_.push_back(Track{process, thread, it->second});
  sample_counts_.push_back(0);
  return static_cast<std::uint16_t>(tracks_.size() - 1);
}

const char* TraceRecorder::intern(const std::string& label) {
  auto it = interned_.find(label);
  if (it != interned_.end()) return it->second;
  interned_storage_.push_back(label);
  const char* p = interned_storage_.back().c_str();
  interned_.emplace(label, p);
  return p;
}

void TraceRecorder::push(std::uint32_t category, char phase,
                         std::uint16_t track, const char* name, SimTime ts,
                         SimTime dur, std::initializer_list<TraceArg> args) {
  if (!enabled(category)) return;
  Event& e = ring_[(head_ + size_) & ring_mask_];
  if (size_ == ring_mask_ + 1) {
    head_ = (head_ + 1) & ring_mask_;  // drop the oldest
    ++dropped_;
  } else {
    ++size_;
  }
  e.name = name;
  e.category = category;
  e.phase = phase;
  e.track = track;
  e.ts = ts;
  e.dur = dur;
  e.nargs = 0;
  for (const TraceArg& a : args) {
    if (e.nargs == kMaxArgs) break;
    e.args[e.nargs++] = a;
  }
  ++events_recorded_;
}

void TraceRecorder::span(std::uint32_t category, std::uint16_t track,
                         const char* name, SimTime ts, SimTime dur,
                         std::initializer_list<TraceArg> args) {
  push(category, 'X', track, name, ts, dur, args);
}

void TraceRecorder::sampled_span(std::uint32_t category, std::uint16_t track,
                                 const char* name, SimTime ts, SimTime dur,
                                 std::initializer_list<TraceArg> args) {
  if (!enabled(category)) return;
  // The counter advances only for spans the category gate let through, so
  // "1-in-N" means 1-in-N of the spans that would otherwise record — and
  // the kept set is a pure function of the track's event order, which the
  // simulation schedule fixes independently of thread count.
  if (config_.sample_every > 1) {
    if ((sample_counts_[track]++ % config_.sample_every) != 0) {
      ++sampled_out_;
      return;
    }
  }
  push(category, 'X', track, name, ts, dur, args);
}

void TraceRecorder::instant(std::uint32_t category, std::uint16_t track,
                            const char* name, SimTime ts,
                            std::initializer_list<TraceArg> args) {
  push(category, 'i', track, name, ts, 0, args);
}

void TraceRecorder::counter(std::uint32_t category, std::uint16_t track,
                            const char* name, SimTime ts,
                            std::initializer_list<TraceArg> args) {
  push(category, 'C', track, name, ts, 0, args);
}

void TraceRecorder::merge_from(const TraceRecorder& other) {
  // Remap other's tracks onto fresh ids here (same process/thread names, so
  // the UI groups them identically).
  std::vector<std::uint16_t> track_map;
  track_map.reserve(other.tracks_.size());
  for (const Track& tr : other.tracks_) {
    track_map.push_back(register_track(tr.process, tr.thread));
  }
  for (std::size_t i = 0; i < other.size_; ++i) {
    const Event& src = other.ring_[(other.head_ + i) & other.ring_mask_];
    Event& e = ring_[(head_ + size_) & ring_mask_];
    if (size_ == ring_mask_ + 1) {
      head_ = (head_ + 1) & ring_mask_;
      ++dropped_;
    } else {
      ++size_;
    }
    // A byte copy: push() leaves the args past nargs unwritten.
    std::memcpy(&e, &src, sizeof e);
    // Names and arg keys may point into other's interned storage; re-own
    // them (string literals get harmlessly deduplicated into storage too).
    e.name = intern(src.name);
    e.track = track_map.at(src.track);
    for (std::uint8_t a = 0; a < e.nargs; ++a) {
      e.args[a].key = intern(src.args[a].key);
    }
    ++events_recorded_;
  }
  dropped_ += other.dropped_;
  sampled_out_ += other.sampled_out_;
}

std::string TraceRecorder::to_json() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };

  // Metadata: one process_name per unique pid, one thread_name per track.
  // The sort index keeps process rows in registration order in the UI.
  std::unordered_map<std::uint32_t, bool> named_pid;
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    const Track& tr = tracks_[t];
    if (!named_pid[tr.pid]) {
      named_pid[tr.pid] = true;
      emit(strfmt("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,"
                  "\"args\":{\"name\":\"%s\"}}",
                  tr.pid, json_escape(tr.process).c_str()));
      emit(strfmt("{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":%u,"
                  "\"args\":{\"sort_index\":%u}}",
                  tr.pid, tr.pid));
    }
    emit(strfmt("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%u,"
                "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                tr.pid, t + 1, json_escape(tr.thread).c_str()));
  }

  const double us = static_cast<double>(kMicrosecond);
  for (std::size_t i = 0; i < size_; ++i) {
    const Event& e = ring_[(head_ + i) & ring_mask_];
    const Track& tr = tracks_.at(e.track);
    std::string line = strfmt(
        "{\"ph\":\"%c\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%u,"
        "\"tid\":%u,\"ts\":%.3f",
        e.phase, json_escape(e.name).c_str(), category_name(e.category),
        tr.pid, static_cast<unsigned>(e.track) + 1,
        static_cast<double>(e.ts) / us);
    if (e.phase == 'X') {
      line += strfmt(",\"dur\":%.3f", static_cast<double>(e.dur) / us);
    }
    if (e.phase == 'i') {
      line += ",\"s\":\"t\"";  // thread-scoped instant
    }
    if (e.nargs > 0 || e.phase == 'C') {
      line += ",\"args\":{";
      for (std::uint8_t a = 0; a < e.nargs; ++a) {
        if (a > 0) line += ",";
        line += strfmt("\"%s\":%s", json_escape(e.args[a].key).c_str(),
                       json_number(e.args[a].value).c_str());
      }
      line += "}";
    }
    line += "}";
    emit(line);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceRecorder::export_json(const std::string& path,
                                std::string* err) const {
  std::ofstream out(path);
  if (!out) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  out << to_json();
  out.close();
  if (!out) {
    if (err) *err = "write failed for " + path;
    return false;
  }
  return true;
}

}  // namespace smartmem::obs
