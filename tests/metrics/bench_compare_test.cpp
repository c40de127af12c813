// The bench-regression gate itself must be trustworthy: a gate that passes
// a regressed document is worse than no gate. These tests pin the parser,
// the tolerance arithmetic, and the two committed fixtures CI diffs as a
// live end-to-end check of tools/bench_compare's exit code.
#include "metrics/bench_compare.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#ifndef CMCP_TEST_DATA_DIR
#define CMCP_TEST_DATA_DIR "tests/data"
#endif

namespace cmcp::metrics {
namespace {

BenchDoc doc_from(const std::string& text) {
  std::istringstream in(text);
  return load_bench_json(in);
}

const char* kTwoRows =
    "{\"schema_version\": 1,\n"
    "\"rows\": [\n"
    "{\"name\": \"sim_a\", \"kind\": \"sim\", \"ns_per_ref\": 100.0, "
    "\"refs_per_sec\": 1.0e7},\n"
    "{\"name\": \"micro_b\", \"kind\": \"micro\", \"ns_per_ref\": 50.0, "
    "\"refs_per_sec\": 2.0e7}\n"
    "]}\n";

TEST(BenchCompareTest, ParsesRowsAndFields) {
  const BenchDoc doc = doc_from(kTwoRows);
  ASSERT_TRUE(doc.ok);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0].name, "sim_a");
  EXPECT_EQ(doc.rows[0].kind, "sim");
  EXPECT_DOUBLE_EQ(doc.rows[0].ns_per_ref, 100.0);
  EXPECT_DOUBLE_EQ(doc.rows[1].refs_per_sec, 2.0e7);
}

TEST(BenchCompareTest, EmptyOrMalformedInputIsNotOk) {
  EXPECT_FALSE(doc_from("").ok);
  EXPECT_FALSE(doc_from("not json at all\n").ok);
  // A rows-free document parses but carries nothing to compare.
  EXPECT_FALSE(doc_from("{\"schema_version\": 1, \"rows\": []}\n").ok);
}

TEST(BenchCompareTest, IdenticalDocsPass) {
  const BenchDoc doc = doc_from(kTwoRows);
  const CompareResult result = compare_bench(doc, doc, CompareOptions{});
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(result.rows[0].speedup, 1.0);
}

TEST(BenchCompareTest, RegressionBeyondToleranceFails) {
  const BenchDoc base = doc_from(kTwoRows);
  BenchDoc cur = base;
  cur.rows[0].refs_per_sec = base.rows[0].refs_per_sec * 0.5;  // 2x slower
  CompareOptions options;
  options.tolerance = 0.25;
  const CompareResult result = compare_bench(base, cur, options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.rows[0].regressed);
  EXPECT_FALSE(result.rows[1].regressed);
}

TEST(BenchCompareTest, SlowdownWithinTolerancePasses) {
  const BenchDoc base = doc_from(kTwoRows);
  BenchDoc cur = base;
  cur.rows[0].refs_per_sec = base.rows[0].refs_per_sec * 0.80;
  CompareOptions options;
  options.tolerance = 0.25;
  EXPECT_TRUE(compare_bench(base, cur, options).ok());
}

TEST(BenchCompareTest, LowerIsBetterMetric) {
  const BenchDoc base = doc_from(kTwoRows);
  BenchDoc cur = base;
  cur.rows[0].ns_per_ref = base.rows[0].ns_per_ref * 2.0;  // slower
  CompareOptions options;
  options.metric = "ns_per_ref";
  const CompareResult result = compare_bench(base, cur, options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.rows[0].regressed);
  // Speedup is normalized so > 1 always means faster.
  EXPECT_DOUBLE_EQ(result.rows[0].speedup, 0.5);
}

TEST(BenchCompareTest, MissingRowIsAFailure) {
  const BenchDoc base = doc_from(kTwoRows);
  BenchDoc cur = base;
  cur.rows.pop_back();
  const CompareResult result = compare_bench(base, cur, CompareOptions{});
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.missing.size(), 1u);
  EXPECT_EQ(result.missing[0], "micro_b");
}

TEST(BenchCompareTest, ExtraCurrentRowsAreIgnored) {
  const BenchDoc base = doc_from(kTwoRows);
  BenchDoc cur = base;
  BenchRow extra;
  extra.name = "new_phase";
  extra.refs_per_sec = 1.0;
  cur.rows.push_back(extra);
  EXPECT_TRUE(compare_bench(base, cur, CompareOptions{}).ok());
}

TEST(BenchCompareTest, ZeroMeasurementIsARegression) {
  const BenchDoc base = doc_from(kTwoRows);
  BenchDoc cur = base;
  cur.rows[0].refs_per_sec = 0.0;  // truncated/corrupt document
  const CompareResult result = compare_bench(base, cur, CompareOptions{});
  EXPECT_FALSE(result.ok());
}

TEST(BenchCompareTest, RequireSpeedupGate) {
  const BenchDoc base = doc_from(kTwoRows);
  BenchDoc cur = base;
  cur.rows[1].refs_per_sec = base.rows[1].refs_per_sec * 1.8;
  CompareOptions options;
  options.require_speedup = 1.5;
  EXPECT_TRUE(compare_bench(base, cur, options).ok());
  options.require_speedup = 2.0;
  const CompareResult result = compare_bench(base, cur, options);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.speedup_met);
  EXPECT_DOUBLE_EQ(result.best_speedup, 1.8);
}

TEST(BenchCompareTest, RowsFilterSelectsSubset) {
  const BenchDoc base = doc_from(kTwoRows);
  BenchDoc cur = base;
  // Tank the micro row; a comparison filtered to sim rows must not see it.
  cur.rows[1].refs_per_sec = base.rows[1].refs_per_sec * 0.1;
  CompareOptions options;
  options.rows = "sim_";
  const CompareResult result = compare_bench(base, cur, options);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].name, "sim_a");
  EXPECT_TRUE(result.ok());
  // Unfiltered, the regression is visible again.
  EXPECT_FALSE(compare_bench(base, cur, CompareOptions{}).ok());
  // A row missing from current still fails inside the filter.
  cur.rows.erase(cur.rows.begin());
  EXPECT_FALSE(compare_bench(base, cur, options).ok());
}

TEST(BenchCompareTest, RowsFilterMatchingNothingFails) {
  const BenchDoc doc = doc_from(kTwoRows);
  CompareOptions options;
  options.rows = "no_such_row";
  const CompareResult result = compare_bench(doc, doc, options);
  EXPECT_TRUE(result.empty_selection);
  EXPECT_FALSE(result.ok());
}

TEST(BenchCompareTest, RequireSpeedupWithRowsFilterDemandsEveryRow) {
  const BenchDoc base = doc_from(kTwoRows);
  BenchDoc cur = base;
  cur.rows[0].refs_per_sec = base.rows[0].refs_per_sec * 3.2;
  cur.rows[1].refs_per_sec = base.rows[1].refs_per_sec * 1.2;
  // Unfiltered: best-row semantics, 3.2x meets the bar.
  CompareOptions options;
  options.require_speedup = 3.0;
  EXPECT_TRUE(compare_bench(base, cur, options).ok());
  // Filtered to both rows (empty-string filter differs from no filter):
  // every selected row must deliver, and micro_b's 1.2x does not.
  options.rows = "_";
  const CompareResult all = compare_bench(base, cur, options);
  EXPECT_FALSE(all.speedup_met);
  EXPECT_FALSE(all.ok());
  // Filtered to the row that did speed up, the claim holds.
  options.rows = "sim_";
  EXPECT_TRUE(compare_bench(base, cur, options).ok());
}

// The committed fixtures back CI's live exit-code check of the CLI: the
// regressed document must fail against the baseline (one halved row, one
// dropped row), and the baseline must pass against itself.
TEST(BenchCompareTest, CommittedFixturesBehave) {
  const BenchDoc base = load_bench_file(std::string(CMCP_TEST_DATA_DIR) +
                                        "/bench_baseline_fixture.json");
  const BenchDoc bad = load_bench_file(std::string(CMCP_TEST_DATA_DIR) +
                                       "/bench_regressed_fixture.json");
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(bad.ok);
  EXPECT_TRUE(compare_bench(base, base, CompareOptions{}).ok());
  const CompareResult result = compare_bench(base, bad, CompareOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.missing.size(), 1u);
  bool fig7_regressed = false;
  for (const RowComparison& row : result.rows)
    if (row.name == "fig7_bt_cmcp") fig7_regressed = row.regressed;
  EXPECT_TRUE(fig7_regressed);
}

// A fast-mode document against a full-mode one is refused before any row is
// compared; a document without meta.fast_mode (like the committed fixtures)
// is unknown and compares with either.
TEST(BenchCompareTest, FastModeMismatchIsRefused) {
  const auto with_mode = [](const char* mode) {
    return doc_from(std::string("{\"schema_version\":1,\n"
                                "\"meta\":{\"bench\":\"wallclock\","
                                "\"fast_mode\":\"") +
                    mode +
                    "\",\"repeat\":\"3\"},\n\"rows\":[\n"
                    "{\"name\":\"sim_a\",\"kind\":\"sim\",\"ns_per_ref\":100.0}\n"
                    "]}\n");
  };
  const BenchDoc fast = with_mode("true");
  const BenchDoc full = with_mode("false");
  const BenchDoc unknown = load_bench_file(std::string(CMCP_TEST_DATA_DIR) +
                                           "/bench_baseline_fixture.json");
  ASSERT_TRUE(fast.ok);
  ASSERT_TRUE(unknown.ok);
  EXPECT_EQ(fast.fast_mode, "true");
  EXPECT_EQ(full.fast_mode, "false");
  EXPECT_EQ(unknown.fast_mode, "");
  EXPECT_FALSE(same_mode(fast, full));
  EXPECT_FALSE(same_mode(full, fast));
  EXPECT_TRUE(same_mode(fast, fast));
  EXPECT_TRUE(same_mode(unknown, fast));
  EXPECT_TRUE(same_mode(full, unknown));
}

}  // namespace
}  // namespace cmcp::metrics
