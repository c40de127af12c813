#include "metrics/table.h"

#include <filesystem>

#include "metrics/result_writer.h"
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/assert.h"

namespace cmcp::metrics {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  CMCP_CHECK(!headers_.empty());
}

Table& Table::add_row(std::vector<std::string> cells) {
  CMCP_CHECK_MSG(cells.size() == headers_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::to_markdown(std::ostream& os) const {
  // Column widths for aligned output.
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  const auto emit_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c];
      for (std::size_t pad = cells[c].size(); pad < width[c]; ++pad) os << ' ';
      os << " |";
    }
    os << '\n';
  };

  emit_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    for (std::size_t i = 0; i < width[c] + 2; ++i) os << '-';
    os << '|';
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
}

void Table::to_csv(std::ostream& os) const {
  // One CSV serialization path project-wide: ResultWriter owns the rules.
  ResultWriter::write_csv_row(os, headers_);
  for (const auto& row : rows_) ResultWriter::write_csv_row(os, row);
}

std::string Table::markdown() const {
  std::ostringstream ss;
  to_markdown(ss);
  return ss.str();
}

void Table::save_csv(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  CMCP_CHECK_MSG(out.good(), "cannot open CSV output file");
  to_csv(out);
}

std::string fmt_double(double v, int precision) {
  std::ostringstream ss;
  ss.setf(std::ios::fixed);
  ss.precision(precision);
  ss << v;
  return ss.str();
}

std::string fmt_percent(double ratio, int precision) {
  return fmt_double(ratio * 100.0, precision) + "%";
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace cmcp::metrics
