// Column-oriented trace recording for simulations and benches.
//
// A Trace collects named time series during a run and can render them as CSV
// or as an aligned text table (the format the figure benches print).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace safe::sim {

class Trace {
 public:
  /// Declares columns up front; `append_row` must supply one value each.
  explicit Trace(std::vector<std::string> column_names);

  /// Appends one sample per column. Throws std::invalid_argument when the
  /// value count does not match the column count.
  void append_row(const std::vector<double>& values);

  [[nodiscard]] std::size_t num_columns() const { return names_.size(); }
  [[nodiscard]] std::size_t num_rows() const { return rows_; }
  [[nodiscard]] const std::vector<std::string>& column_names() const {
    return names_;
  }

  /// Column by name; throws std::out_of_range for unknown names.
  [[nodiscard]] const std::vector<double>& column(const std::string& name) const;

  /// Largest value of a column (0.0 for an empty trace) — convenient for
  /// "did this flag ever fire" queries on indicator columns.
  [[nodiscard]] double column_max(const std::string& name) const;

  /// Column by index.
  [[nodiscard]] const std::vector<double>& column(std::size_t index) const;

  /// Writes all rows as CSV with a header line.
  void write_csv(std::ostream& os) const;

  /// Writes an aligned, human-readable table. `stride` > 1 subsamples rows
  /// (the header and final row are always included).
  void write_table(std::ostream& os, std::size_t stride = 1) const;

  /// Parses a CSV previously produced by write_csv (header + numeric
  /// rows). Throws std::invalid_argument on malformed input.
  static Trace read_csv(std::istream& is);

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> columns_;
  std::size_t rows_ = 0;
};

}  // namespace safe::sim
