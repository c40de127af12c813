// metrics::ResultWriter — the single CSV/JSON serialization path.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "metrics/result_writer.h"

namespace cmcp::metrics {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string csv_of(const ResultWriter& w) {
  std::ostringstream ss;
  w.to_csv(ss);
  return ss.str();
}

// Per-test scratch directory: ctest may run tests as parallel processes, so
// each test cleans and owns its own directory.
fs::path fresh_dir(const char* test) {
  const auto dir = fs::path(::testing::TempDir()) / "result_writer_test" / test;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(ResultWriter, ColumnsAreUnionInFirstSeenOrder) {
  ResultWriter w;
  w.add_row().set("a", 1).set("b", 2);
  w.add_row().set("b", 3).set("c", 4);
  EXPECT_EQ(w.columns(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(csv_of(w), "a,b,c\n1,2,\n,3,4\n");
}

TEST(ResultWriter, SetOverwritesExistingField) {
  ResultWriter w;
  auto& row = w.add_row();
  row.set("x", 1);
  row.set("x", 2);
  EXPECT_EQ(csv_of(w), "x\n2\n");
}

TEST(ResultWriter, CsvQuotesOnlyWhenNeeded) {
  ResultWriter w;
  w.add_row()
      .set("plain", "abc")
      .set("comma", "a,b")
      .set("quote", "a\"b")
      .set("newline", "a\nb");
  EXPECT_EQ(csv_of(w),
            "plain,comma,quote,newline\n"
            "abc,\"a,b\",\"a\"\"b\",\"a\nb\"\n");
}

TEST(ResultWriter, DoublesUseShortestRoundTrip) {
  ResultWriter w;
  w.add_row().set("v", 0.9).set("w", 0.1).set("i", std::uint64_t{7});
  EXPECT_EQ(csv_of(w), "v,w,i\n0.9,0.1,7\n");
}

TEST(ResultWriter, JsonSchemaVersionMetaAndTypedValues) {
  ResultWriter w;
  w.meta("workload", "cg");
  w.add_row()
      .set("name", "x\"y")
      .set("count", std::uint64_t{5})
      .set("ratio", 0.5)
      .set("delta", std::int64_t{-3});
  std::ostringstream json;
  w.to_json(json);
  EXPECT_EQ(json.str(),
            "{\"schema_version\":1,\n"
            "\"meta\":{\"workload\":\"cg\"},\n"
            "\"rows\":[\n"
            "{\"name\":\"x\\\"y\",\"count\":5,\"ratio\":0.5,\"delta\":-3}\n"
            "]}\n");
}

TEST(ResultWriter, SaveCreatesParentDirectories) {
  const auto dir = fresh_dir("save");
  const auto path = dir / "nested/deeper/out.csv";
  ResultWriter w;
  w.add_row().set("a", 1);
  w.save_csv(path.string());
  EXPECT_EQ(slurp(path), "a\n1\n");
  w.save_json((dir / "nested/out.json").string());
  EXPECT_TRUE(fs::exists(dir / "nested/out.json"));
}

TEST(ResultWriter, AppendWritesHeaderExactlyOnce) {
  const auto path = fresh_dir("append") / "append.csv";
  ResultWriter w;
  w.add_row().set("a", 1).set("b", 2);
  w.append_csv(path.string());
  w.append_csv(path.string());
  EXPECT_EQ(slurp(path), "a,b\n1,2\n1,2\n");
}

TEST(ResultWriterDeathTest, AppendAbortsOnHeaderMismatch) {
  const auto path = fresh_dir("mismatch") / "mismatch.csv";
  ResultWriter w;
  w.add_row().set("a", 1);
  w.append_csv(path.string());
  ResultWriter other;
  other.add_row().set("z", 1);
  EXPECT_DEATH(other.append_csv(path.string()), "CSV schema mismatch");
}

}  // namespace
}  // namespace cmcp::metrics
