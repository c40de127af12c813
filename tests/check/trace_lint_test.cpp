// Trace linter tests: clean simulator traces lint clean (across policies,
// page tables, scanners and write-backs), and surgically corrupted streams
// fire exactly the intended rule.
#include "check/trace_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/multi_tenant.h"
#include "core/simulation.h"
#include "mm/frame_partition.h"
#include "sim/trace.h"
#include "workloads/multi_tenant.h"

#ifndef CMCP_TEST_DATA_DIR
#define CMCP_TEST_DATA_DIR "tests/data"
#endif

namespace cmcp::check {
namespace {

/// Minimal scripted workload (mirrors the engine tests').
class ScriptedWorkload final : public wl::Workload {
 public:
  ScriptedWorkload(CoreId cores, std::uint64_t pages,
                   std::vector<std::vector<wl::Op>> scripts)
      : cores_(cores), pages_(pages) {
    for (auto& ops : scripts)
      scripts_.push_back(
          std::make_shared<const std::vector<wl::Op>>(std::move(ops)));
  }

  std::string_view name() const override { return "scripted"; }
  CoreId num_cores() const override { return cores_; }
  std::uint64_t footprint_base_pages() const override { return pages_; }
  std::unique_ptr<wl::AccessStream> make_stream(CoreId core) const override {
    return std::make_unique<wl::VectorStream>(scripts_[core]);
  }

 private:
  CoreId cores_;
  std::uint64_t pages_;
  std::vector<std::shared_ptr<const std::vector<wl::Op>>> scripts_;
};

/// Run a constrained two-core workload and return its JSONL trace.
/// `scan_period` != 0 shrinks the scanner tick so the short scripted run
/// still produces scan-pass events.
std::string traced_run(PolicyKind policy, double fraction, bool write = true,
                       Cycles scan_period = 0) {
  sim::trace::EventSink sink;
  std::vector<wl::Op> script = {wl::Op::access(0, write, 32),
                                wl::Op::barrier(),
                                wl::Op::access(0, false, 32)};
  ScriptedWorkload w(2, 32, {script, script});
  core::SimulationConfig config;
  config.machine.num_cores = 2;
  config.policy.kind = policy;
  config.memory_fraction = fraction;
  if (scan_period != 0) config.machine.cost.scan_period = scan_period;
  config.trace = &sink;
  core::Simulation sim(config, w);
  const auto result = sim.run();
  std::ostringstream os;
  sim::trace::export_jsonl(sink, {{"policy", std::string(to_string(policy))}},
                           {{"evictions", result.app_total.evictions}}, os);
  return os.str();
}

LintResult lint_string(const std::string& text) {
  std::istringstream in(text);
  return lint_jsonl_trace(in);
}

std::vector<std::string> rules_of(const LintResult& result) {
  std::vector<std::string> rules;
  for (const LintIssue& issue : result.issues) rules.push_back(issue.rule);
  return rules;
}

TEST(TraceLint, CleanCmcpTraceLintsClean) {
  const LintResult result = lint_string(traced_run(PolicyKind::kCmcp, 0.5));
  EXPECT_TRUE(result.ok()) << result.issues.size() << " issues, first: "
                           << result.issues[0].rule << ": "
                           << result.issues[0].message;
  EXPECT_GT(result.events, 0u);
}

TEST(TraceLint, CleanLruScannerTraceLintsClean) {
  // LRU runs the access-bit scanner: scan passes and batched shootdowns.
  const LintResult result = lint_string(traced_run(PolicyKind::kLru, 0.5));
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.issues[0].message);
}

TEST(TraceLint, CleanUnconstrainedTraceLintsClean) {
  const LintResult result =
      lint_string(traced_run(PolicyKind::kFifo, 1.0, /*write=*/false));
  EXPECT_TRUE(result.ok());
}

TEST(TraceLint, EmptyInputIsClean) {
  const LintResult result = lint_string("");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.events, 0u);
}

// --- string-surgery corruptions --------------------------------------------

/// Delete the first line matching `needle` (returns false if absent).
bool drop_first_line(std::string& text, std::string_view needle) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::string_view line(text.data() + pos, end - pos);
    if (line.find(needle) != std::string_view::npos) {
      text.erase(pos, end - pos + 1);
      return true;
    }
    pos = end + 1;
  }
  return false;
}

/// Find the first line containing every needle and return a copy of it.
std::string first_line(const std::string& text,
                       std::initializer_list<std::string_view> needles) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::string line = text.substr(pos, end - pos);
    bool all = true;
    for (const std::string_view needle : needles)
      if (line.find(needle) == std::string::npos) all = false;
    if (all) return line;
    pos = end + 1;
  }
  return {};
}

std::string first_line(const std::string& text, std::string_view needle) {
  return first_line(text, {needle});
}

bool contains(const std::vector<std::string>& rules, std::string_view rule) {
  for (const std::string& r : rules)
    if (r == rule) return true;
  return false;
}

TEST(TraceLint, DroppedShootdownBeforeSharedEvictionIsCaught) {
  std::string text = traced_run(PolicyKind::kCmcp, 0.5);
  // At least one eviction must have torn down a unit both cores mapped.
  ASSERT_FALSE(
      first_line(text, {"\"kind\":\"eviction\"", "\"targets\":2"}).empty())
      << "no shared eviction in the trace";
  // Erase every shootdown record — the "no eviction without prior
  // invalidation of all mapping cores" evidence is gone.
  while (drop_first_line(text, "\"kind\":\"shootdown\"")) {
  }
  const LintResult result = lint_string(text);
  const auto rules = rules_of(result);
  EXPECT_TRUE(contains(rules, "eviction-without-shootdown"));
  // The by_kind footer no longer matches either.
  EXPECT_TRUE(contains(rules, "summary-count-mismatch"));
}

TEST(TraceLint, DuplicatedEvictionIsDoubleEvict) {
  std::string text = traced_run(PolicyKind::kCmcp, 0.5);
  const std::string eviction = first_line(text, "\"kind\":\"eviction\"");
  ASSERT_FALSE(eviction.empty());
  // Append the same eviction right after itself.
  const std::size_t pos = text.find(eviction);
  text.insert(pos + eviction.size() + 1, eviction + "\n");
  const LintResult result = lint_string(text);
  const auto rules = rules_of(result);
  EXPECT_TRUE(contains(rules, "double-evict")) << "rules: " << rules.size();
  // The duplicate also lacks its own victim_pick.
  EXPECT_TRUE(contains(rules, "eviction-without-pick"));
}

TEST(TraceLint, DroppedFetchIsMajorFaultWithoutTransfer) {
  std::string text = traced_run(PolicyKind::kFifo, 0.5);
  ASSERT_TRUE(drop_first_line(text, "\"kind\":\"pcie_transfer\""));
  const LintResult result = lint_string(text);
  EXPECT_TRUE(contains(rules_of(result), "major-fault-without-transfer"));
}

TEST(TraceLint, DroppedVictimPickIsEvictionWithoutPick) {
  std::string text = traced_run(PolicyKind::kCmcp, 0.5);
  ASSERT_TRUE(drop_first_line(text, "\"kind\":\"victim_pick\""));
  const LintResult result = lint_string(text);
  EXPECT_TRUE(contains(rules_of(result), "eviction-without-pick"));
}

TEST(TraceLint, CorruptedDirtyFlagIsWritebackMismatch) {
  std::string text = traced_run(PolicyKind::kCmcp, 0.5, /*write=*/false);
  // Read-only workload: every eviction is clean. Claim one was dirty.
  const std::string eviction = first_line(text, "\"kind\":\"eviction\"");
  ASSERT_FALSE(eviction.empty());
  std::string dirty = eviction;
  const std::size_t pos = dirty.find("\"dirty\":0");
  ASSERT_NE(pos, std::string::npos);
  dirty.replace(pos, 9, "\"dirty\":1");
  text.replace(text.find(eviction), eviction.size(), dirty);
  const LintResult result = lint_string(text);
  EXPECT_TRUE(contains(rules_of(result), "writeback-mismatch"));
}

TEST(TraceLint, OutOfOrderFaultIsCoreTimeRegression) {
  std::string text = traced_run(PolicyKind::kCmcp, 0.5);
  const std::string fault = first_line(text, "\"kind\":\"major_fault\"");
  ASSERT_FALSE(fault.empty());
  // Re-emit the stream's first major fault just before the summary: its
  // timestamp is now far below that core's per-(asid, core) watermark, the
  // signature of an exporter (or engine) merging events out of
  // virtual-time order.
  const std::size_t summary_pos = text.find("{\"type\":\"summary\"");
  ASSERT_NE(summary_pos, std::string::npos);
  text.insert(summary_pos, fault + "\n");
  EXPECT_TRUE(contains(rules_of(lint_string(text)), "core-time-regression"));
}

TEST(TraceLint, OutOfOrderScanPassIsCoreTimeRegression) {
  // Scanner passes are in the monotonicity watermark too (they are stamped
  // with the scanner pseudo-core's tick time).
  std::string text =
      traced_run(PolicyKind::kLru, 0.5, /*write=*/true, /*scan_period=*/2000);
  std::string scan = first_line(text, "\"kind\":\"scan_pass\"");
  ASSERT_FALSE(scan.empty()) << "no scanner pass in the LRU trace";
  const std::size_t ts_pos = scan.find("\"ts\":");
  ASSERT_NE(ts_pos, std::string::npos);
  std::size_t digits = ts_pos + 5;
  while (digits < scan.size() &&
         std::isdigit(static_cast<unsigned char>(scan[digits])) != 0)
    ++digits;
  scan.replace(ts_pos, digits - ts_pos, "\"ts\":0");
  const std::size_t summary_pos = text.find("{\"type\":\"summary\"");
  ASSERT_NE(summary_pos, std::string::npos);
  text.insert(summary_pos, scan + "\n");
  EXPECT_TRUE(contains(rules_of(lint_string(text)), "core-time-regression"));
}

TEST(TraceLint, MissingMetaAndSummaryAreReported) {
  std::string text = traced_run(PolicyKind::kFifo, 1.0, false);
  ASSERT_TRUE(drop_first_line(text, "\"type\":\"meta\""));
  ASSERT_TRUE(drop_first_line(text, "\"type\":\"summary\""));
  const LintResult result = lint_string(text);
  const auto rules = rules_of(result);
  EXPECT_TRUE(contains(rules, "missing-meta"));
  EXPECT_TRUE(contains(rules, "missing-summary"));
}

TEST(TraceLint, GarbageLineIsParseError) {
  std::string text = traced_run(PolicyKind::kFifo, 1.0, false);
  text.insert(text.find('\n') + 1, "this is not JSON\n");
  const LintResult result = lint_string(text);
  EXPECT_TRUE(contains(rules_of(result), "parse-error"));
}

TEST(TraceLint, OversizedNumberIsParseErrorOnItsLine) {
  // 2^64 used to wrap to 0 and lint exactly like "unit":0.
  std::string text = traced_run(PolicyKind::kCmcp, 0.5);
  const std::size_t unit = text.find("\"unit\":0,");
  ASSERT_NE(unit, std::string::npos);
  text.replace(unit, 9, "\"unit\":18446744073709551616,");
  const auto line = static_cast<std::size_t>(
      std::count(text.begin(), text.begin() + static_cast<long>(unit), '\n') + 1);
  const LintResult result = lint_string(text);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].rule, "parse-error");
  EXPECT_EQ(result.issues[0].line, line);
  EXPECT_NE(result.issues[0].message.find("18446744073709551616"),
            std::string::npos);
}

TEST(TraceLint, CheckedInCorruptFixtureFails) {
  // The repo ships a corrupted trace (tests/data/) so the linter's failure
  // mode itself is pinned: CI runs trace_lint against it and expects a
  // pointed diagnostic, not a crash or a pass.
  const LintResult result = lint_trace_file(
      std::string(CMCP_TEST_DATA_DIR) + "/corrupt_eviction_trace.jsonl");
  ASSERT_FALSE(result.ok());
  const auto rules = rules_of(result);
  EXPECT_TRUE(contains(rules, "eviction-without-shootdown"));
  EXPECT_TRUE(contains(rules, "double-evict"));
  for (const LintIssue& issue : result.issues) EXPECT_GT(issue.line, 0u);
}

TEST(TraceLint, MissingFileIsIoError) {
  const LintResult result = lint_trace_file("/nonexistent/trace.jsonl");
  ASSERT_EQ(result.issues.size(), 1u);
  EXPECT_EQ(result.issues[0].rule, "io-error");
}

// --- multi-tenant traces ----------------------------------------------------

/// Two scripted 2-core tenants contending under proportional share; returns
/// the JSONL trace (meta declares "spaces":2, every event carries an asid).
std::string traced_multi_run() {
  sim::trace::EventSink sink;
  std::vector<wl::Op> script = {wl::Op::access(0, true, 24),
                                wl::Op::barrier(),
                                wl::Op::access(0, false, 24)};
  wl::MultiTenantSpec spec;
  spec.add(std::make_unique<ScriptedWorkload>(
      2, 24, std::vector<std::vector<wl::Op>>{script, script}));
  spec.add(std::make_unique<ScriptedWorkload>(
      2, 24, std::vector<std::vector<wl::Op>>{script, script}));
  core::MultiTenantConfig config;
  config.partition = mm::PartitionKind::kProportionalShare;
  config.memory_fraction = 0.5;
  config.trace = &sink;
  std::vector<core::TenantRunConfig> tenants(2);
  tenants[0].policy.kind = PolicyKind::kCmcp;
  tenants[1].policy.kind = PolicyKind::kCmcp;
  const auto result = core::run_multi_tenant(config, spec, tenants);
  std::ostringstream os;
  sim::trace::export_jsonl(sink, {{"mode", "multi-tenant"}},
                           {{"makespan", result.makespan}}, os);
  return os.str();
}

TEST(TraceLint, CleanMultiTenantTraceLintsClean) {
  // End-to-end: the asid-tagging convention of the whole fault/eviction/
  // shootdown pipeline must form a legal history under (asid, unit) keying —
  // including cross-space QoS evictions, where the initiating core belongs
  // to one space and the victim unit to another.
  const std::string text = traced_multi_run();
  EXPECT_NE(text.find("\"spaces\":2"), std::string::npos);
  EXPECT_NE(text.find("\"asid\":1"), std::string::npos);
  const LintResult result = lint_string(text);
  EXPECT_TRUE(result.ok()) << result.issues.size() << " issues, first: "
                           << (result.ok() ? std::string()
                                           : result.issues[0].rule + ": " +
                                                 result.issues[0].message);
  EXPECT_GT(result.events, 0u);
}

TEST(TraceLint, StrippedEvictionAsidIsCaught) {
  std::string text = traced_multi_run();
  std::string eviction = first_line(text, "\"kind\":\"eviction\"");
  ASSERT_FALSE(eviction.empty());
  std::string stripped = eviction;
  const std::size_t pos = stripped.find(",\"asid\":");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = stripped.find('}', pos);
  stripped.erase(pos, end - pos);
  text.replace(text.find(eviction), eviction.size(), stripped);
  EXPECT_TRUE(
      contains(rules_of(lint_string(text)), "eviction-missing-asid"));
}

TEST(TraceLint, CrossAsidFillIsCaught) {
  std::string text = traced_multi_run();
  // Claim a tenant-1 fault belongs to tenant 0: the core's space binding
  // (learned from its first fault) no longer matches.
  const std::string fault =
      first_line(text, {"\"kind\":\"minor_fault\"", "\"asid\":1"});
  ASSERT_FALSE(fault.empty());
  std::string flipped = fault;
  flipped.replace(flipped.find("\"asid\":1"), 8, "\"asid\":0");
  text.replace(text.find(fault), fault.size(), flipped);
  EXPECT_TRUE(contains(rules_of(lint_string(text)), "cross-asid-fill"));
}

TEST(TraceLint, OutOfRangeAsidIsCaught) {
  std::string text = traced_multi_run();
  const std::string fault =
      first_line(text, {"\"kind\":\"major_fault\"", "\"asid\":0"});
  ASSERT_FALSE(fault.empty());
  std::string flipped = fault;
  flipped.replace(flipped.find("\"asid\":0"), 8, "\"asid\":7");
  text.replace(text.find(fault), fault.size(), flipped);
  EXPECT_TRUE(contains(rules_of(lint_string(text)), "asid-out-of-range"));
}

TEST(TraceLint, SingleTenantTraceCarriesNoAsid) {
  // The single-tenant exporter must stay byte-compatible with schema 1:
  // no "spaces" in the meta, no asid on any event.
  const std::string text = traced_run(PolicyKind::kCmcp, 0.5);
  EXPECT_EQ(text.find("\"spaces\":"), std::string::npos);
  EXPECT_EQ(text.find("\"asid\":"), std::string::npos);
}

TEST(TraceLint, CheckedInCorruptMultiTenantFixtureFails) {
  const LintResult result = lint_trace_file(
      std::string(CMCP_TEST_DATA_DIR) + "/corrupt_multi_tenant_trace.jsonl");
  ASSERT_FALSE(result.ok());
  const auto rules = rules_of(result);
  EXPECT_TRUE(contains(rules, "eviction-missing-asid"));
  EXPECT_TRUE(contains(rules, "cross-asid-fill"));
  EXPECT_TRUE(contains(rules, "asid-out-of-range"));
  for (const LintIssue& issue : result.issues) EXPECT_GT(issue.line, 0u);
}

// --- fault-injected traces --------------------------------------------------

/// traced_run with a FaultPlan attached; the meta header carries the
/// fault_max_retries the give-up rule checks against.
std::string traced_fault_run(const std::string& spec) {
  sim::trace::EventSink sink;
  std::vector<wl::Op> script = {wl::Op::access(0, true, 32),
                                wl::Op::barrier(),
                                wl::Op::access(0, false, 32)};
  ScriptedWorkload w(2, 32, {script, script});
  core::SimulationConfig config;
  config.machine.num_cores = 2;
  config.policy.kind = PolicyKind::kCmcp;
  config.memory_fraction = 0.5;
  config.trace = &sink;
  EXPECT_EQ(sim::FaultPlanConfig::parse(spec, &config.faults), "");
  core::Simulation sim(config, w);
  const auto result = sim.run();
  std::ostringstream os;
  sim::trace::export_jsonl(
      sink,
      {{"faults", config.faults.to_spec()},
       {"fault_max_retries", std::to_string(sim::FaultPlanConfig::kMaxRetries)}},
      {{"evictions", result.app_total.evictions}}, os);
  return os.str();
}

TEST(TraceLint, CleanFaultTraceLintsClean) {
  // A heavy mix (transient + sticky PCIe, ECC poison): every injected
  // failure must pair with its retries/give-ups and every quarantine must
  // be final, or the simulator's own recovery emission is broken.
  const std::string text =
      traced_fault_run("seed=7,pcie=0.2,sticky=0.05,poison=2");
  EXPECT_NE(text.find("\"kind\":\"fault_inject\""), std::string::npos);
  const LintResult result = lint_string(text);
  EXPECT_TRUE(result.ok()) << result.issues.size() << " issues, first: "
                           << (result.ok() ? std::string()
                                           : result.issues[0].rule + ": " +
                                                 result.issues[0].message);
}

TEST(TraceLint, DroppedInjectIsRetryWithoutFailure) {
  std::string text = traced_fault_run("seed=7,pcie=0.3");
  ASSERT_TRUE(drop_first_line(text, "\"kind\":\"fault_inject\""));
  const auto rules = rules_of(lint_string(text));
  EXPECT_TRUE(contains(rules, "retry-without-failure"));
}

TEST(TraceLint, EarlyGiveUpIsCaught) {
  // Shrink a sticky give-up's attempt count below the declared budget.
  std::string text = traced_fault_run("seed=11,sticky=0.2");
  const std::string give_up = first_line(text, "\"kind\":\"fault_give_up\"");
  ASSERT_FALSE(give_up.empty());
  std::string early = give_up;
  const std::size_t pos = early.find("\"attempts\":6");
  ASSERT_NE(pos, std::string::npos);
  early.replace(pos, 12, "\"attempts\":2");
  text.replace(text.find(give_up), give_up.size(), early);
  EXPECT_TRUE(
      contains(rules_of(lint_string(text)), "give-up-without-max-retries"));
}

TEST(TraceLint, OversizedRetryBudgetIsParseError) {
  // The retry budget is a quoted number in the meta header.
  std::string text = traced_fault_run("seed=7,pcie=0.3");
  const std::size_t budget = text.find("\"fault_max_retries\":\"");
  ASSERT_NE(budget, std::string::npos);
  text.insert(budget + 21, "99999999999999999999");
  const LintResult result = lint_string(text);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].rule, "parse-error");
  EXPECT_EQ(result.issues[0].line, 1u);
}

TEST(TraceLint, CheckedInCorruptFaultFixtureFails) {
  const LintResult result = lint_trace_file(
      std::string(CMCP_TEST_DATA_DIR) + "/corrupt_fault_trace.jsonl");
  ASSERT_FALSE(result.ok());
  const auto rules = rules_of(result);
  EXPECT_TRUE(contains(rules, "retry-without-failure"));
  EXPECT_TRUE(contains(rules, "give-up-without-max-retries"));
  EXPECT_TRUE(contains(rules, "fill-from-quarantined-frame"));
  for (const LintIssue& issue : result.issues) EXPECT_GT(issue.line, 0u);
}

}  // namespace
}  // namespace cmcp::check
