// Tests for the domain linter (src/lint): every rule in the catalog must
// fire on its fixture, the negative fixtures must stay clean, suppression
// comments must work, and the CLI must follow the repo's exit-code
// convention (0 clean / 1 findings / 2 usage error — same as
// bench_compare).
#include "lint/lint.h"

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lint/lexer.h"

namespace cmcp::lint {
namespace {

std::string fixture_root() {
  return std::string(CMCP_TEST_DATA_DIR) + "/lint_fixtures";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Lint a fixture file under its repo-relative effective path.
std::vector<Finding> lint_fixture(const std::string& rel) {
  return lint_source(rel, read_file(fixture_root() + "/" + rel));
}

std::map<std::string, int> count_by_rule(const std::vector<Finding>& fs) {
  std::map<std::string, int> counts;
  for (const Finding& f : fs) ++counts[f.rule];
  return counts;
}

// ---------------------------------------------------------------------------
// Per-rule fixtures: exact finding counts
// ---------------------------------------------------------------------------

TEST(CmcpLint, HashKeyedIndexFixture) {
  const auto fs = lint_fixture("src/mm/bad_hash_key.h");
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_EQ(count_by_rule(fs)["hash-keyed-index"], 2);
}

TEST(CmcpLint, PointerKeyFixture) {
  const auto fs = lint_fixture("src/core/bad_pointer_key.h");
  auto counts = count_by_rule(fs);
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_EQ(counts["ordered-pointer-key"], 1);
  EXPECT_EQ(counts["hashed-pointer-key"], 1);
}

TEST(CmcpLint, AddressCastFixture) {
  const auto fs = lint_fixture("src/sim/bad_address_cast.cpp");
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_EQ(count_by_rule(fs)["pointer-address-cast"], 2);
}

TEST(CmcpLint, WallclockFixture) {
  const auto fs = lint_fixture("src/core/bad_wallclock.cpp");
  EXPECT_EQ(fs.size(), 4u);
  EXPECT_EQ(count_by_rule(fs)["wallclock-time"], 4);
}

TEST(CmcpLint, EntropyFixture) {
  const auto fs = lint_fixture("src/policy/bad_entropy.cpp");
  EXPECT_EQ(fs.size(), 3u);
  EXPECT_EQ(count_by_rule(fs)["unseeded-entropy"], 3);
}

TEST(CmcpLint, FloatTimeFixture) {
  const auto fs = lint_fixture("src/sim/bad_float_time.cpp");
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_EQ(count_by_rule(fs)["float-virtual-time"], 2);
}

TEST(CmcpLint, CheckSideEffectFixture) {
  const auto fs = lint_fixture("src/core/bad_check_side_effect.cpp");
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_EQ(count_by_rule(fs)["check-side-effect"], 2);
}

TEST(CmcpLint, RawMutexFixture) {
  const auto fs = lint_fixture("src/metrics/bad_raw_mutex.cpp");
  EXPECT_EQ(fs.size(), 3u);
  EXPECT_EQ(count_by_rule(fs)["raw-mutex"], 3);
}

TEST(CmcpLint, StrayThreadFixture) {
  const auto fs = lint_fixture("src/core/bad_stray_thread.cpp");
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_EQ(count_by_rule(fs)["stray-thread"], 2);
}

TEST(CmcpLint, VolatileFixture) {
  const auto fs = lint_fixture("src/mm/bad_volatile.h");
  EXPECT_EQ(fs.size(), 1u);
  EXPECT_EQ(count_by_rule(fs)["volatile-qualifier"], 1);
}

TEST(CmcpLint, UnorderedIterationFixture) {
  const auto fs = lint_fixture("src/core/bad_unordered_iteration.cpp");
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_EQ(count_by_rule(fs)["unordered-iteration"], 2);
}

// ---------------------------------------------------------------------------
// Negative fixtures
// ---------------------------------------------------------------------------

TEST(CmcpLint, SuppressionCommentsSilenceFindings) {
  EXPECT_TRUE(lint_fixture("src/core/suppressed_ok.cpp").empty());
}

TEST(CmcpLint, NearMissPatternsStayClean) {
  EXPECT_TRUE(lint_fixture("src/common/clean_near_miss.cpp").empty());
}

TEST(CmcpLint, PathScopingExemptsTestsAndDocs) {
  // The same offending content outside src/tools/bench triggers nothing:
  // every rule is scoped to the directories whose contracts it enforces.
  const std::string bad = read_file(fixture_root() + "/src/mm/bad_hash_key.h");
  EXPECT_TRUE(lint_source("tests/mm/bad_hash_key.h", bad).empty());
  EXPECT_TRUE(lint_source("docs/example.h", bad).empty());
}

TEST(CmcpLint, SanctionedOwnersAreExempt) {
  // The wrapper files themselves may use the primitives they encapsulate.
  EXPECT_TRUE(
      lint_source("src/common/rng.cpp", "std::mt19937_64 engine_;").empty());
  EXPECT_TRUE(
      lint_source("bench/wallclock.cpp",
                  "auto t = std::chrono::steady_clock::now();")
          .empty());
  // ...but only those exact files.
  EXPECT_FALSE(
      lint_source("src/common/other.h", "std::mutex mu_;").empty());
  // No file may hold a lock, not even the parallel runner, the one file
  // allowed to create threads.
  for (const char* path :
       {"src/common/mutex.h", "src/metrics/parallel_runner.cpp"})
    EXPECT_EQ(count_by_rule(lint_source(path, "std::mutex mu_;"))["raw-mutex"],
              1)
        << path;
}

TEST(CmcpLint, StrayThreadSanctionsOnlyTheParallelRunner) {
  // The experiment runner is the only file allowed to create threads; the
  // same tokens anywhere else — including a host thread pool for the engine
  // in src/common, which the simulator no longer has — still fire.
  const std::string src = "std::thread t_; std::atomic<int> n_;";
  EXPECT_TRUE(lint_source("src/metrics/parallel_runner.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/metrics/parallel_runner.h", src).empty());
  EXPECT_EQ(lint_source("src/common/thread_pool.h", src).size(), 2u);
  EXPECT_EQ(lint_source("src/common/thread_pool.cpp", src).size(), 2u);
  EXPECT_EQ(lint_source("src/sim/machine.cpp", src).size(), 2u);
  EXPECT_EQ(count_by_rule(lint_source("src/common/thread_pool.cpp",
                                      src))["stray-thread"],
            2);
}

// ---------------------------------------------------------------------------
// Catalog coverage: every advertised rule has a firing fixture
// ---------------------------------------------------------------------------

TEST(CmcpLint, EveryCatalogRuleHasAFiringFixture) {
  const char* kFixtures[] = {
      "src/mm/bad_hash_key.h",          "src/core/bad_pointer_key.h",
      "src/sim/bad_address_cast.cpp",   "src/core/bad_wallclock.cpp",
      "src/policy/bad_entropy.cpp",     "src/sim/bad_float_time.cpp",
      "src/core/bad_check_side_effect.cpp", "src/metrics/bad_raw_mutex.cpp",
      "src/core/bad_stray_thread.cpp",  "src/mm/bad_volatile.h",
      "src/core/bad_unordered_iteration.cpp"};
  std::set<std::string> fired;
  for (const char* rel : kFixtures)
    for (const Finding& f : lint_fixture(rel)) fired.insert(f.rule);
  ASSERT_GE(rule_catalog().size(), 10u) << "catalog shrank below the floor";
  for (const RuleInfo& rule : rule_catalog())
    EXPECT_TRUE(fired.count(std::string(rule.id)))
        << "no fixture fires rule " << rule.id;
}

// ---------------------------------------------------------------------------
// Engine details
// ---------------------------------------------------------------------------

TEST(CmcpLint, StringsAndCommentsAreNotCode) {
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "const char* s = \"std::mutex volatile rand()\";\n"
                          "// std::thread in a comment\n"
                          "/* time(nullptr) in a block comment */\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "const char* s = R\"(std::mutex volatile)\";\n")
                  .empty());
}

TEST(CmcpLint, AllowanceCoversNextCodeLineAfterCommentBlock) {
  const std::string src =
      "// cmcp-lint: allow(volatile-qualifier) — hardware register doc,\n"
      "// continued justification prose on a second comment line.\n"
      "volatile int reg;\n"
      "volatile int unexcused;\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 4u);
}

TEST(CmcpLint, WildcardAllowSilencesAllRules) {
  const auto fs = lint_source(
      "src/core/x.cpp",
      "volatile int reg;  // cmcp-lint: allow(*) — fixture escape hatch\n");
  EXPECT_TRUE(fs.empty());
}

TEST(CmcpLint, FindingsAreSortedDeterministically) {
  auto fs = lint_fixture("src/core/bad_wallclock.cpp");
  for (std::size_t i = 1; i < fs.size(); ++i) {
    EXPECT_LE(fs[i - 1].line, fs[i].line);
  }
}

TEST(CmcpLintLexer, TracksLinesThroughContinuationsAndRawStrings) {
  const auto r = lex("#define M(x) \\\n  (x)\nint a;\nR\"(two\nlines)\" int b;\n");
  // `int a;` must be on line 3 (the continuation consumed line 1-2), and
  // `int b;` on line 5 (the raw string body spans lines 4-5).
  unsigned line_a = 0, line_b = 0;
  for (std::size_t i = 0; i + 1 < r.tokens.size(); ++i) {
    if (r.tokens[i].text == "a") line_a = r.tokens[i].line;
    if (r.tokens[i].text == "b") line_b = r.tokens[i].line;
  }
  EXPECT_EQ(line_a, 3u);
  EXPECT_EQ(line_b, 5u);
}

TEST(CmcpLintLexer, FloatLiteralClassification) {
  EXPECT_TRUE(is_float_literal("1.5"));
  EXPECT_TRUE(is_float_literal("1e9"));
  EXPECT_TRUE(is_float_literal("2.f"));
  EXPECT_TRUE(is_float_literal("0x1p-3"));
  EXPECT_FALSE(is_float_literal("42"));
  EXPECT_FALSE(is_float_literal("0xFF"));
  EXPECT_FALSE(is_float_literal("1'000'000"));
  EXPECT_FALSE(is_float_literal("0xfeed"));  // trailing hex 'd', not a suffix
}

// ---------------------------------------------------------------------------
// CLI exit codes (bench_compare convention: 0 clean / 1 findings / 2 error)
// ---------------------------------------------------------------------------

int run_tool(const std::string& args) {
  const std::string cmd = std::string(CMCP_LINT_BIN) + " " + args +
                          " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CmcpLintCli, ExitCodesFollowTheRepoConvention) {
  const std::string root = fixture_root();
  EXPECT_EQ(run_tool("--root " + root), 1) << "fixture tree must report findings";
  EXPECT_EQ(run_tool("--root " + root + " " + root +
                     "/src/common/clean_near_miss.cpp"),
            0)
      << "clean file must exit 0";
  EXPECT_EQ(run_tool("--root /nonexistent-cmcp-lint-root"), 2);
  EXPECT_EQ(run_tool("--bogus-flag"), 2);
  EXPECT_EQ(run_tool("--list-rules"), 0);
}

}  // namespace
}  // namespace cmcp::lint
