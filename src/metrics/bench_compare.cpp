#include "metrics/bench_compare.h"

#include <cstdlib>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>

namespace cmcp::metrics {

namespace {

/// Position just past `"key":` and any following spaces, or npos. Accepts
/// whitespace after the colon so hand-edited (pretty-printed) baselines
/// parse the same as ResultWriter's compact output.
std::size_t value_begin(std::string_view text, std::string_view key) {
  const std::string needle = '"' + std::string(key) + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string_view::npos) return std::string_view::npos;
  std::size_t begin = pos + needle.size();
  while (begin < text.size() && (text[begin] == ' ' || text[begin] == '\t'))
    ++begin;
  return begin < text.size() ? begin : std::string_view::npos;
}

std::optional<std::string> find_string(std::string_view text,
                                       std::string_view key) {
  const std::size_t begin = value_begin(text, key);
  if (begin == std::string_view::npos || text[begin] != '"')
    return std::nullopt;
  const std::size_t end = text.find('"', begin + 1);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(text.substr(begin + 1, end - begin - 1));
}

std::optional<double> find_number(std::string_view text, std::string_view key) {
  const std::size_t begin = value_begin(text, key);
  if (begin == std::string_view::npos) return std::nullopt;
  const std::string num(text.substr(begin, text.find_first_of(",}", begin) - begin));
  char* end = nullptr;
  const double value = std::strtod(num.c_str(), &end);
  if (end == num.c_str()) return std::nullopt;
  return value;
}

bool higher_is_better(std::string_view metric) { return metric != "ns_per_ref"; }

double metric_of(const BenchRow& row, std::string_view metric) {
  return metric == "ns_per_ref" ? row.ns_per_ref : row.refs_per_sec;
}

}  // namespace

BenchDoc load_bench_json(std::istream& in) {
  BenchDoc doc;
  std::string line;
  while (std::getline(in, line)) {
    // The meta object, one line in ResultWriter output, names the mode.
    if (const auto mode = find_string(line, "fast_mode")) doc.fast_mode = *mode;
    // ResultWriter emits one row object per line inside the "rows" array;
    // only lines carrying a "name" field are bench rows.
    if (line.empty() || line[0] != '{') continue;
    const auto name = find_string(line, "name");
    if (!name) continue;
    BenchRow row;
    row.name = *name;
    if (const auto kind = find_string(line, "kind")) row.kind = *kind;
    if (const auto v = find_number(line, "ns_per_ref")) row.ns_per_ref = *v;
    if (const auto v = find_number(line, "refs_per_sec")) row.refs_per_sec = *v;
    doc.rows.push_back(std::move(row));
  }
  doc.ok = !doc.rows.empty();
  return doc;
}

BenchDoc load_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return {};
  return load_bench_json(in);
}

bool same_mode(const BenchDoc& a, const BenchDoc& b) {
  return a.fast_mode.empty() || b.fast_mode.empty() ||
         a.fast_mode == b.fast_mode;
}

CompareResult compare_bench(const BenchDoc& baseline, const BenchDoc& current,
                            const CompareOptions& options) {
  CompareResult result;
  const bool higher = higher_is_better(options.metric);
  for (const BenchRow& base : baseline.rows) {
    if (!options.rows.empty() &&
        base.name.find(options.rows) == std::string::npos)
      continue;
    const BenchRow* cur = nullptr;
    for (const BenchRow& c : current.rows) {
      if (c.name == base.name) {
        cur = &c;
        break;
      }
    }
    if (cur == nullptr) {
      result.missing.push_back(base.name);
      continue;
    }
    RowComparison cmp;
    cmp.name = base.name;
    cmp.baseline = metric_of(base, options.metric);
    cmp.current = metric_of(*cur, options.metric);
    if (cmp.baseline > 0.0 && cmp.current > 0.0) {
      cmp.speedup = higher ? cmp.current / cmp.baseline
                           : cmp.baseline / cmp.current;
      cmp.regressed = cmp.speedup < 1.0 - options.tolerance;
    } else {
      // A zero/absent measurement cannot be compared; treat as regression
      // so a truncated document never passes the gate.
      cmp.regressed = true;
    }
    if (cmp.speedup > result.best_speedup) result.best_speedup = cmp.speedup;
    result.rows.push_back(std::move(cmp));
  }
  result.empty_selection =
      !options.rows.empty() && result.rows.empty() && result.missing.empty();
  if (options.require_speedup > 0.0) {
    if (options.rows.empty()) {
      result.speedup_met = result.best_speedup >= options.require_speedup;
    } else {
      // A filtered comparison names exactly the rows the speedup claim is
      // about, so every one of them must deliver it (and an empty
      // selection must not read as "met").
      result.speedup_met = !result.rows.empty();
      for (const RowComparison& row : result.rows)
        if (row.speedup < options.require_speedup) result.speedup_met = false;
    }
  }
  return result;
}

void print_comparison(const CompareResult& result, const CompareOptions& options,
                      std::ostream& os) {
  os << "bench_compare: metric=" << options.metric
     << " tolerance=" << options.tolerance;
  if (!options.rows.empty()) os << " rows~\"" << options.rows << '"';
  os << '\n';
  if (!options.rows.empty() && result.rows.empty() && result.missing.empty())
    os << "  (no baseline row matches the filter)\n";
  for (const RowComparison& row : result.rows) {
    os << "  " << (row.regressed ? "REGRESSED " : "ok        ") << row.name
       << ": " << row.baseline << " -> " << row.current << " (x" << row.speedup
       << ")\n";
  }
  for (const std::string& name : result.missing)
    os << "  MISSING   " << name << ": present in baseline only\n";
  if (options.require_speedup > 0.0)
    os << "  best speedup x" << result.best_speedup << " (required x"
       << options.require_speedup << (result.speedup_met ? ", met" : ", NOT met")
       << ")\n";
  os << (result.ok() ? "PASS" : "FAIL") << '\n';
}

}  // namespace cmcp::metrics
