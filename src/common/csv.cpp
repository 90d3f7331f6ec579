#include "common/csv.hpp"

#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "common/strfmt.hpp"
#include "common/time_series.hpp"
#include "common/types.hpp"

namespace smartmem {

namespace {

// Process-wide registry of paths held by live CsvWriters: enforces the
// single-writer-per-file contract (see the class comment in csv.hpp).
std::mutex& open_paths_mutex() {
  static std::mutex mu;
  return mu;
}

std::unordered_set<std::string>& open_paths() {
  static std::unordered_set<std::string> paths;
  return paths;
}

void claim_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(open_paths_mutex());
  if (!open_paths().insert(path).second) {
    throw std::logic_error(
        "CsvWriter: " + path +
        " is already open by another writer — CSV files must be written by "
        "exactly one thread, after the parallel barrier");
  }
}

void unclaim_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(open_paths_mutex());
  open_paths().erase(path);
}

}  // namespace

CsvWriter::CsvWriter(std::ostream& out) : out_(&out) {}

CsvWriter::CsvWriter(const std::string& path) : out_(&owned_) {
  claim_path(path);
  path_ = path;
  owned_.open(path);
  if (!owned_) {
    unclaim_path(path);
    path_.clear();
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

CsvWriter::~CsvWriter() {
  if (!path_.empty()) unclaim_path(path_);
}

void CsvWriter::separator() {
  if (!at_row_start_) *out_ << ',';
  at_row_start_ = false;
}

std::string CsvWriter::escape(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter& CsvWriter::field(const std::string& value) {
  separator();
  *out_ << escape(value);
  return *this;
}

CsvWriter& CsvWriter::field(double value) {
  separator();
  *out_ << strfmt("%.6g", value);
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t value) {
  separator();
  *out_ << value;
  return *this;
}

void CsvWriter::end_row() {
  *out_ << '\n';
  at_row_start_ = true;
}

void CsvWriter::row(std::initializer_list<std::string> fields) {
  for (const auto& f : fields) field(f);
  end_row();
}

void write_series_csv(const std::string& path, const SeriesSet& set) {
  CsvWriter csv(path);
  csv.row({"series", "time_s", "value"});
  for (const auto& [name, ts] : set.all()) {
    for (const auto& s : ts.samples()) {
      csv.field(name).field(to_seconds(s.when)).field(s.value);
      csv.end_row();
    }
  }
}

}  // namespace smartmem
