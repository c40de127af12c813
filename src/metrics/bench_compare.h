// Comparison of two wall-clock bench documents (bench/wallclock.cpp emits
// them through metrics::ResultWriter) so CI can gate on throughput
// regressions: rows are matched by name, the chosen metric is compared with
// a relative tolerance, and a missing row is itself a failure — silently
// dropping a phase must not read as "no regression".
//
// The parser is deliberately minimal, like check/trace_lint: ResultWriter
// writes one row object per line, so targeted field extraction is enough and
// the tool stays free of a JSON dependency the container may not have.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cmcp::metrics {

/// One bench row as loaded from a BENCH_*.json document. Only the fields
/// the comparison needs; absent numeric fields read as 0.
struct BenchRow {
  std::string name;
  std::string kind;  ///< "sim" or "micro"
  double ns_per_ref = 0.0;
  double refs_per_sec = 0.0;
};

/// Load all named rows from a ResultWriter JSON document. Returns an empty
/// vector on malformed input (the caller distinguishes via ok flag).
struct BenchDoc {
  std::vector<BenchRow> rows;
  bool ok = false;  ///< document parsed and contained at least one row
  /// meta.fast_mode ("true"/"false"); empty when the document has no such
  /// key, which reads as unknown.
  std::string fast_mode;
};

BenchDoc load_bench_json(std::istream& in);
BenchDoc load_bench_file(const std::string& path);

struct CompareOptions {
  /// Relative slowdown tolerated before a row counts as regressed:
  /// current must stay >= baseline * (1 - tolerance) on a higher-is-better
  /// metric (and <= baseline * (1 + tolerance) on a lower-is-better one).
  double tolerance = 0.25;
  /// Metric to compare: "refs_per_sec" (higher is better) or "ns_per_ref"
  /// (lower is better).
  std::string metric = "refs_per_sec";
  /// When > 0, at least one compared row must show current/baseline >=
  /// this speedup factor (used to assert a claimed improvement landed).
  /// With a `rows` filter the requirement hardens to EVERY selected row —
  /// a narrowed comparison names exactly the rows the claim is about.
  double require_speedup = 0.0;
  /// When non-empty, only baseline rows whose name contains this substring
  /// are compared (missing-row detection included). Lets CI gate a
  /// specific claim ("the fig7 rows got faster") without coupling it to
  /// unrelated rows' noise.
  std::string rows;
};

struct RowComparison {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  /// Improvement factor normalized so > 1 always means faster.
  double speedup = 0.0;
  bool regressed = false;
};

struct CompareResult {
  std::vector<RowComparison> rows;
  std::vector<std::string> missing;  ///< baseline rows absent from current
  double best_speedup = 0.0;
  bool speedup_met = true;  ///< require_speedup satisfied (or not requested)
  /// A `rows` filter that selects nothing — a typo'd filter must fail
  /// loudly, not gate on zero rows.
  bool empty_selection = false;
  bool ok() const {
    if (!missing.empty() || !speedup_met || empty_selection) return false;
    for (const RowComparison& r : rows)
      if (r.regressed) return false;
    return true;
  }
};

/// False when both documents record meta.fast_mode and the values differ:
/// fast and full mode run different row shapes, so their numbers cannot be
/// compared. A missing key is unknown and accepted.
bool same_mode(const BenchDoc& a, const BenchDoc& b);

CompareResult compare_bench(const BenchDoc& baseline, const BenchDoc& current,
                            const CompareOptions& options);

/// Human-readable report of a comparison (one line per row + verdict).
void print_comparison(const CompareResult& result, const CompareOptions& options,
                      std::ostream& os);

}  // namespace cmcp::metrics
