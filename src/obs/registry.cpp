#include "obs/registry.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/strfmt.hpp"

namespace smartmem::obs {

namespace {

std::string metric_number(double v) {
  if (std::isnan(v)) return "null";
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v >= -9.0e15 && v <= 9.0e15) {
    return strfmt("%lld", static_cast<long long>(v));
  }
  return strfmt("%.17g", v);
}

std::string quote_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Registry::add(std::string name, bool counter, ReadFn read) {
  if (closed_) {
    throw std::logic_error("Registry: registration after first snapshot");
  }
  metrics_.push_back(Metric{std::move(name), counter, std::move(read)});
}

void Registry::add_counter(std::string name, ReadFn read) {
  add(std::move(name), true, std::move(read));
}

void Registry::add_counter(std::string name, const std::uint64_t* value) {
  add(std::move(name), true,
      [value] { return static_cast<double>(*value); });
}

void Registry::add_gauge(std::string name, ReadFn read) {
  add(std::move(name), false, std::move(read));
}

void Registry::add_histogram(const std::string& name, const Histogram* hist) {
  add_gauge(name + ".p50", [hist] { return hist->quantile(0.50); });
  add_gauge(name + ".p95", [hist] { return hist->quantile(0.95); });
  add_gauge(name + ".p99", [hist] { return hist->quantile(0.99); });
  add_counter(name + ".count",
              [hist] { return static_cast<double>(hist->total()); });
}

void Registry::add_running_stats(const std::string& name,
                                 const RunningStats* stats) {
  add_gauge(name + ".mean", [stats] { return stats->mean(); });
  add_gauge(name + ".max",
            [stats] { return stats->count() ? stats->max() : 0.0; });
  add_counter(name + ".count",
              [stats] { return static_cast<double>(stats->count()); });
}

void Registry::snapshot(SimTime now) {
  closed_ = true;
  Row row;
  row.when = now;
  row.values.reserve(metrics_.size());
  for (const Metric& m : metrics_) row.values.push_back(m.read());
  rows_.push_back(std::move(row));
}

double Registry::latest(const std::string& name) const {
  if (rows_.empty()) return std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) return rows_.back().values[i];
  }
  return std::numeric_limits<double>::quiet_NaN();
}

bool Registry::export_to(const std::string& path, std::string* err) const {
  std::ofstream out(path);
  if (!out) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    out << "t_s";
    for (const Metric& m : metrics_) out << "," << m.name;
    out << "\n";
    for (const Row& row : rows_) {
      out << strfmt("%.6f", to_seconds(row.when));
      for (double v : row.values) out << "," << metric_number(v);
      out << "\n";
    }
  } else {
    for (const Row& row : rows_) {
      out << strfmt("{\"t_s\":%.6f,\"metrics\":{", to_seconds(row.when));
      for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0) out << ",";
        out << "\"" << quote_escape(metrics_[i].name)
            << "\":" << metric_number(row.values[i]);
      }
      out << "}}\n";
    }
  }
  out.close();
  if (!out) {
    if (err) *err = "write failed for " + path;
    return false;
  }
  return true;
}

}  // namespace smartmem::obs
