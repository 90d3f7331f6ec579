// CSV export so every bench can dump the raw rows behind its printed table
// (one file per figure, consumable by any plotting tool).
#pragma once

#include <fstream>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace smartmem {

class SeriesSet;

/// Streaming CSV writer with RFC-4180 quoting.
///
/// Concurrency contract: a CsvWriter is single-threaded, and at most one
/// writer may have a given path open at a time. The parallel bench flow
/// honours this by construction — workers only fill pre-sized result slots,
/// and every CSV file is written after the barrier, on the main thread. To
/// fail loudly instead of interleaving rows if that discipline is ever
/// broken, the path constructor registers the file in a process-wide table
/// and throws std::logic_error when the path is already held by a live
/// writer.
class CsvWriter {
 public:
  /// Writes to an externally owned stream.
  explicit CsvWriter(std::ostream& out);

  /// Opens (and truncates) `path`; throws std::runtime_error on failure and
  /// std::logic_error if another live CsvWriter already holds `path`.
  explicit CsvWriter(const std::string& path);

  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Appends one field to the current row.
  CsvWriter& field(const std::string& value);
  CsvWriter& field(double value);
  CsvWriter& field(std::uint64_t value);

  /// Terminates the current row.
  void end_row();

  /// Convenience: writes a whole row of string fields.
  void row(std::initializer_list<std::string> fields);

 private:
  void separator();
  static std::string escape(const std::string& value);

  std::ofstream owned_;
  std::ostream* out_;
  std::string path_;  // non-empty only for path-backed writers
  bool at_row_start_ = true;
};

/// Dumps a SeriesSet as long-format CSV: series,name,time_s,value.
void write_series_csv(const std::string& path, const SeriesSet& set);

}  // namespace smartmem
