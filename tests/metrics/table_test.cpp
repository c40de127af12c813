#include "metrics/table.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace cmcp::metrics {
namespace {

std::string csv_of(const Table& t) {
  std::ostringstream ss;
  t.to_csv(ss);
  return ss.str();
}

TEST(Table, MarkdownHasHeaderSeparatorAndRows) {
  Table t({"app", "rel"});
  t.add_row({"bt", "0.49"});
  t.add_row({"cg", "0.65"});
  const std::string md = t.markdown();
  EXPECT_NE(md.find("| app | rel  |"), std::string::npos);
  EXPECT_NE(md.find("|-----|------|"), std::string::npos);
  EXPECT_NE(md.find("| bt  | 0.49 |"), std::string::npos);
  EXPECT_NE(md.find("| cg  | 0.65 |"), std::string::npos);
}

TEST(Table, MarkdownPadsToWidestCell) {
  Table t({"x"});
  t.add_row({"longer-cell"});
  const std::string md = t.markdown();
  EXPECT_NE(md.find("| x           |"), std::string::npos);
}

TEST(Table, CsvPlain) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(csv_of(t), "a,b\n1,2\n");
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"a"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  EXPECT_EQ(csv_of(t), "a\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(Table, SaveCsvCreatesDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "cmcp_table_test";
  std::filesystem::remove_all(dir);
  Table t({"a"});
  t.add_row({"1"});
  const auto path = dir / "nested" / "out.csv";
  t.save_csv(path.string());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "a\n1\n");
  std::filesystem::remove_all(dir);
}

TEST(Table, RowAccessors) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 2u);
  EXPECT_EQ(t.row(0)[1], "2");
}

TEST(TableDeath, RowWidthMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "width");
}

TEST(Formatting, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(3.0, 0), "3");
  EXPECT_EQ(fmt_double(-1.5, 1), "-1.5");
}

TEST(Formatting, FmtPercent) {
  EXPECT_EQ(fmt_percent(0.385), "38.5%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

TEST(Formatting, FmtU64) { EXPECT_EQ(fmt_u64(12345), "12345"); }

}  // namespace
}  // namespace cmcp::metrics
