#include "metrics/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

namespace cmcp::metrics {
namespace {

TEST(ToConfig, UsesPaperFractionWhenUnset) {
  RunSpec spec;
  spec.workload = wl::PaperWorkload::kCg;
  spec.memory_fraction = -1.0;
  const auto config = spec.to_config();
  EXPECT_DOUBLE_EQ(config.memory_fraction, 0.37);
}

TEST(ToConfig, ExplicitFractionWins) {
  RunSpec spec;
  spec.memory_fraction = 0.8;
  EXPECT_DOUBLE_EQ(spec.to_config().memory_fraction, 0.8);
}

TEST(ToConfig, CopiesMachineKnobs) {
  RunSpec spec;
  spec.cores = 12;
  spec.page_size = PageSizeClass::k2M;
  const auto config = spec.to_config();
  EXPECT_EQ(config.machine.num_cores, 12u);
  EXPECT_EQ(config.machine.page_size, PageSizeClass::k2M);
}

std::string lookup(const sim::trace::Metadata& meta, std::string_view key) {
  for (const auto& [name, value] : meta)
    if (name == key) return value;
  return "<missing>";
}

TEST(Describe, SerializesEveryField) {
  RunSpec spec;
  spec.workload = wl::PaperWorkload::kLu;
  spec.size = wl::WorkloadSize::kSmall;
  spec.cores = 24;
  spec.pt_kind = PageTableKind::kPspt;
  spec.policy.kind = PolicyKind::kCmcp;
  spec.policy.cmcp.p = 0.45;
  spec.memory_fraction = 0.5;
  spec.preload = true;
  spec.page_size = PageSizeClass::k64K;
  spec.seed = 99;
  spec.scale = 0.25;
  const auto meta = spec.describe();
  EXPECT_EQ(lookup(meta, "workload"), "lu");
  EXPECT_EQ(lookup(meta, "cores"), "24");
  EXPECT_EQ(lookup(meta, "pt_kind"), "PSPT");
  EXPECT_EQ(lookup(meta, "policy"), "CMCP");
  EXPECT_EQ(lookup(meta, "memory_fraction"), "0.5");
  EXPECT_EQ(lookup(meta, "preload"), "true");
  EXPECT_EQ(lookup(meta, "page_size"), "64kB");
  EXPECT_EQ(lookup(meta, "seed"), "99");
  EXPECT_EQ(lookup(meta, "scale"), "0.25");
  EXPECT_EQ(lookup(meta, "cmcp_p"), "0.45");
}

TEST(Describe, RecordsResolvedPaperFraction) {
  RunSpec spec;
  spec.workload = wl::PaperWorkload::kCg;
  spec.memory_fraction = -1.0;  // "use the paper default"
  // describe() and to_config() must agree on the resolved value.
  EXPECT_EQ(lookup(spec.describe(), "memory_fraction"), "0.37");
  EXPECT_DOUBLE_EQ(spec.to_config().memory_fraction, 0.37);
}

TEST(ResultSummary, CoversHeadlineCountersAndPolicyStats) {
  RunSpec spec;
  spec.workload = wl::PaperWorkload::kScale;
  spec.cores = 4;
  spec.scale = 0.05;
  spec.policy.kind = PolicyKind::kCmcp;
  const auto result = run_spec(spec);
  const auto summary = result_summary(result);
  bool saw_makespan = false, saw_policy = false;
  for (const auto& [name, value] : summary) {
    if (name == "makespan") {
      saw_makespan = true;
      EXPECT_EQ(value, result.makespan);
    }
    if (name.rfind("policy.", 0) == 0) saw_policy = true;
  }
  EXPECT_TRUE(saw_makespan);
  EXPECT_TRUE(saw_policy);
  EXPECT_EQ(result.policy_name, "CMCP");
}

TEST(RelativePerformance, RatioAndZeroGuard) {
  core::SimulationResult base, run;
  base.makespan = 100;
  run.makespan = 200;
  EXPECT_DOUBLE_EQ(relative_performance(base, run), 0.5);
  run.makespan = 0;
  EXPECT_DOUBLE_EQ(relative_performance(base, run), 0.0);
}

TEST(FastMode, FollowsEnvironment) {
  unsetenv("CMCP_BENCH_FAST");
  EXPECT_FALSE(fast_mode());
  EXPECT_EQ(paper_core_counts().size(), 7u);
  setenv("CMCP_BENCH_FAST", "1", 1);
  EXPECT_TRUE(fast_mode());
  EXPECT_LT(paper_core_counts().size(), 7u);
  unsetenv("CMCP_BENCH_FAST");
}

TEST(RunSpecEndToEnd, SmokeRun) {
  RunSpec spec;
  spec.workload = wl::PaperWorkload::kScale;
  spec.cores = 4;
  spec.scale = 0.05;
  spec.policy.kind = PolicyKind::kCmcp;
  const auto result = run_spec(spec);
  EXPECT_GT(result.makespan, 0u);
  EXPECT_GT(result.app_total.accesses, 0u);
  EXPECT_EQ(result.per_core.size(), 4u);
}

TEST(RunSpecEndToEnd, TracePathWritesTheTrace) {
  const auto path = std::filesystem::path(::testing::TempDir()) /
                    "experiment_test" / "run.jsonl";
  std::filesystem::remove_all(path.parent_path());
  RunSpec spec;
  spec.workload = wl::PaperWorkload::kScale;
  spec.cores = 4;
  spec.scale = 0.05;
  spec.policy.kind = PolicyKind::kCmcp;
  spec.trace_path = path.string();
  spec.trace_format = sim::trace::Format::kJsonl;
  run_spec(spec);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("{\"type\":\"meta\"", 0), 0u) << first;
}

}  // namespace
}  // namespace cmcp::metrics
