#include "metrics/result_writer.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/assert.h"
#include "common/json_escape.h"

namespace cmcp::metrics {

namespace {

std::string fmt_double_shortest(double v) {
  // Shortest representation that round-trips — deterministic and exact.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  CMCP_CHECK(ec == std::errc());
  return std::string(buf, end);
}

}  // namespace

ResultWriter::Row& ResultWriter::Row::set_raw(std::string name, std::string text,
                                              bool quoted) {
  for (Field& f : fields_) {
    if (f.name == name) {
      f.text = std::move(text);
      f.quoted_in_json = quoted;
      return *this;
    }
  }
  fields_.push_back({std::move(name), std::move(text), quoted});
  return *this;
}

ResultWriter::Row& ResultWriter::Row::set(std::string name, std::string value) {
  return set_raw(std::move(name), std::move(value), true);
}
ResultWriter::Row& ResultWriter::Row::set(std::string name,
                                          std::string_view value) {
  return set_raw(std::move(name), std::string(value), true);
}
ResultWriter::Row& ResultWriter::Row::set(std::string name, const char* value) {
  return set_raw(std::move(name), std::string(value), true);
}
ResultWriter::Row& ResultWriter::Row::set(std::string name, double value) {
  return set_raw(std::move(name), fmt_double_shortest(value), false);
}
ResultWriter::Row& ResultWriter::Row::set(std::string name, std::uint64_t value) {
  return set_raw(std::move(name), std::to_string(value), false);
}
ResultWriter::Row& ResultWriter::Row::set(std::string name, std::int64_t value) {
  return set_raw(std::move(name), std::to_string(value), false);
}

ResultWriter::Row& ResultWriter::add_row() {
  rows_.emplace_back();
  return rows_.back();
}

ResultWriter& ResultWriter::meta(std::string name, std::string value) {
  meta_.emplace_back(std::move(name), std::move(value));
  return *this;
}

std::vector<std::string> ResultWriter::columns() const {
  std::vector<std::string> cols;
  for (const Row& row : rows_)
    for (const Row::Field& f : row.fields_)
      if (std::find(cols.begin(), cols.end(), f.name) == cols.end())
        cols.push_back(f.name);
  return cols;
}

void ResultWriter::write_csv_row(std::ostream& os,
                                 const std::vector<std::string>& cells) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c != 0) os << ',';
    // Values are simple identifiers/numbers; quote only when needed.
    if (cells[c].find_first_of(",\"\n") != std::string::npos) {
      os << '"';
      for (char ch : cells[c]) {
        if (ch == '"') os << '"';
        os << ch;
      }
      os << '"';
    } else {
      os << cells[c];
    }
  }
  os << '\n';
}

void ResultWriter::write_rows_csv(std::ostream& os,
                                  const std::vector<std::string>& cols) const {
  std::vector<std::string> cells(cols.size());
  for (const Row& row : rows_) {
    for (auto& c : cells) c.clear();
    for (const Row::Field& f : row.fields_) {
      const auto it = std::find(cols.begin(), cols.end(), f.name);
      cells[static_cast<std::size_t>(it - cols.begin())] = f.text;
    }
    write_csv_row(os, cells);
  }
}

void ResultWriter::to_csv(std::ostream& os) const {
  const auto cols = columns();
  write_csv_row(os, cols);
  write_rows_csv(os, cols);
}

void ResultWriter::save_csv(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::trunc);
  CMCP_CHECK_MSG(out.good(), "cannot open CSV output file");
  to_csv(out);
}

void ResultWriter::append_csv(const std::string& path) const {
  const auto cols = columns();
  std::ostringstream header_ss;
  write_csv_row(header_ss, cols);
  std::string header = header_ss.str();
  if (!header.empty() && header.back() == '\n') header.pop_back();

  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  bool fresh = true;
  {
    std::ifstream in(p);
    std::string existing;
    if (in.good() && std::getline(in, existing)) {
      fresh = false;
      if (!existing.empty() && existing.back() == '\r') existing.pop_back();
      CMCP_CHECK_MSG(existing == header,
                     "CSV schema mismatch: existing header differs");
    }
  }
  std::ofstream out(p, std::ios::app);
  CMCP_CHECK_MSG(out.good(), "cannot open CSV output file");
  if (fresh) out << header << '\n';
  write_rows_csv(out, cols);
}

void ResultWriter::to_json(std::ostream& os) const {
  os << "{\"schema_version\":" << kSchemaVersion << ",\n\"meta\":{";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i != 0) os << ',';
    os << json_quoted(meta_[i].first) << ':' << json_quoted(meta_[i].second);
  }
  os << "},\n\"rows\":[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << '{';
    const Row& row = rows_[r];
    for (std::size_t f = 0; f < row.fields_.size(); ++f) {
      if (f != 0) os << ',';
      const Row::Field& field = row.fields_[f];
      os << json_quoted(field.name) << ':';
      if (field.quoted_in_json)
        os << json_quoted(field.text);
      else
        os << field.text;
    }
    os << '}';
    if (r + 1 != rows_.size()) os << ',';
    os << '\n';
  }
  os << "]}\n";
}

void ResultWriter::save_json(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::trunc);
  CMCP_CHECK_MSG(out.good(), "cannot open JSON output file");
  to_json(out);
}

}  // namespace cmcp::metrics
