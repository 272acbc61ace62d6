#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace safe::sim {

namespace {

// One row per simulated step across every live Trace: the cheapest proxy
// for "simulation work done" the telemetry layer exports (jobs-invariant).
const telemetry::MetricId& trace_rows_metric() {
  static const telemetry::MetricId id = telemetry::counter("sim.trace_rows");
  return id;
}

}  // namespace

Trace::Trace(std::vector<std::string> column_names)
    : names_(std::move(column_names)), columns_(names_.size()) {
  if (names_.empty()) {
    throw std::invalid_argument("Trace: needs at least one column");
  }
}

void Trace::append_row(const std::vector<double>& values) {
  if (values.size() != names_.size()) {
    throw std::invalid_argument("Trace::append_row: value count mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    columns_[i].push_back(values[i]);
  }
  ++rows_;
  telemetry::add(trace_rows_metric());
}

const std::vector<double>& Trace::column(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) {
    throw std::out_of_range("Trace::column: unknown column '" + name + "'");
  }
  return columns_[static_cast<std::size_t>(it - names_.begin())];
}

double Trace::column_max(const std::string& name) const {
  const std::vector<double>& values = column(name);
  double best = 0.0;
  for (const double v : values) best = std::max(best, v);
  return best;
}

const std::vector<double>& Trace::column(std::size_t index) const {
  if (index >= columns_.size()) {
    throw std::out_of_range("Trace::column: index out of range");
  }
  return columns_[index];
}

void Trace::write_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < names_.size(); ++c) {
    os << (c == 0 ? "" : ",") << names_[c];
  }
  os << '\n';
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << (c == 0 ? "" : ",") << columns_[c][r];
    }
    os << '\n';
  }
}

Trace Trace::read_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::invalid_argument("Trace::read_csv: missing header");
  }
  std::vector<std::string> names;
  {
    std::istringstream header(line);
    std::string cell;
    while (std::getline(header, cell, ',')) names.push_back(cell);
  }
  if (names.empty()) {
    throw std::invalid_argument("Trace::read_csv: empty header");
  }
  Trace trace(std::move(names));
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string cell;
    std::vector<double> values;
    while (std::getline(row, cell, ',')) {
      std::size_t consumed = 0;
      double v = 0.0;
      try {
        v = std::stod(cell, &consumed);
      } catch (const std::exception&) {
        throw std::invalid_argument("Trace::read_csv: bad number on line " +
                                    std::to_string(line_no));
      }
      if (consumed != cell.size()) {
        throw std::invalid_argument("Trace::read_csv: trailing junk on line " +
                                    std::to_string(line_no));
      }
      values.push_back(v);
    }
    trace.append_row(values);  // throws on arity mismatch
  }
  return trace;
}

void Trace::write_table(std::ostream& os, std::size_t stride) const {
  if (stride == 0) stride = 1;
  constexpr int kWidth = 14;
  for (const auto& name : names_) {
    os << std::setw(kWidth) << name;
  }
  os << '\n';
  const auto print_row = [&](std::size_t r) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << std::setw(kWidth) << std::fixed << std::setprecision(3)
         << columns_[c][r];
    }
    os << '\n';
  };
  for (std::size_t r = 0; r < rows_; r += stride) print_row(r);
  if (rows_ != 0 && (rows_ - 1) % stride != 0) print_row(rows_ - 1);
  os.unsetf(std::ios_base::floatfield);
}

}  // namespace safe::sim
