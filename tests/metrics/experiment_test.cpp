#include "metrics/experiment.h"

#include <gtest/gtest.h>

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

/// The policy-specific pairs describe() appends after "scale".
sim::trace::Metadata policy_pairs(const RunSpec& spec) {
  const sim::trace::Metadata meta = spec.describe();
  auto it = meta.begin();
  while (it != meta.end() && it->first != "scale") ++it;
  EXPECT_NE(it, meta.end());
  return {it == meta.end() ? it : it + 1, meta.end()};
}

TEST(Describe, DynamicPRecordsStartPointAndControllerConstants) {
  RunSpec spec;
  spec.policy.kind = PolicyKind::kCmcpDynamicP;
  spec.policy.cmcp.p = 0.6;  // not the controller's start point
  const sim::trace::Metadata expected = {
      {"cmcp_p", "0.3"}, {"dyn_step", "0.1"}, {"dyn_window_ticks", "4"}};
  EXPECT_EQ(policy_pairs(spec), expected);
  spec.policy.dynamic_p_start = 0.5;
  const sim::trace::Metadata started = {
      {"cmcp_p", "0.5"}, {"dyn_step", "0.1"}, {"dyn_window_ticks", "4"}};
  EXPECT_EQ(policy_pairs(spec), started);
}

TEST(Describe, RandomRecordsItsFixedSeed) {
  RunSpec spec;
  spec.policy.kind = PolicyKind::kRandom;
  const sim::trace::Metadata expected = {{"random_seed", "24301"}};
  EXPECT_EQ(policy_pairs(spec), expected);
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

}  // namespace
}  // namespace cmcp::metrics
