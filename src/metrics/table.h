// Small table builder with markdown and CSV rendering — every bench binary
// reports its figure/table through this so outputs are uniform and easy to
// diff against EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cmcp::metrics {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return headers_.size(); }
  const std::vector<std::string>& header() const { return headers_; }
  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

  void to_markdown(std::ostream& os) const;
  void to_csv(std::ostream& os) const;
  std::string markdown() const;

  /// Write CSV to `path`, creating parent directories if needed.
  void save_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formatting helpers shared by benches.
std::string fmt_double(double v, int precision = 2);
std::string fmt_percent(double ratio, int precision = 1);  ///< 0.38 -> "38.0%"
std::string fmt_u64(std::uint64_t v);

}  // namespace cmcp::metrics
