// The engine is a deterministic virtual-time interleaver: identical
// configuration must give bit-identical results.
#include <gtest/gtest.h>

#include <sstream>

#include "core/simulation.h"
#include "sim/trace.h"
#include "workloads/workload_factory.h"

namespace cmcp {
namespace {

core::SimulationResult run_once(PolicyKind policy, std::uint64_t seed,
                                wl::PaperWorkload which = wl::PaperWorkload::kBt,
                                sim::trace::EventSink* sink = nullptr) {
  wl::WorkloadParams params;
  params.cores = 8;
  params.scale = 0.15;
  params.seed = seed;
  const auto w = wl::make_paper_workload(which, params);
  core::SimulationConfig config;
  config.machine.num_cores = 8;
  config.memory_fraction = wl::paper_memory_fraction(which);
  config.policy.kind = policy;
  config.trace = sink;
  return core::run_simulation(config, *w);
}

class DeterminismTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(DeterminismTest, IdenticalConfigIdenticalResult) {
  const auto a = run_once(GetParam(), 42);
  const auto b = run_once(GetParam(), 42);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sharing_histogram, b.sharing_histogram);
  ASSERT_EQ(a.per_core.size(), b.per_core.size());
  for (std::size_t c = 0; c < a.per_core.size(); ++c)
    EXPECT_EQ(a.per_core[c], b.per_core[c]) << "core " << c;
  EXPECT_EQ(a.scanner, b.scanner);
}

TEST_P(DeterminismTest, DifferentSeedsDiverge) {
  const auto a = run_once(GetParam(), 1);
  const auto b = run_once(GetParam(), 2);
  EXPECT_NE(a.makespan, b.makespan);
}

INSTANTIATE_TEST_SUITE_P(Policies, DeterminismTest,
                         ::testing::Values(PolicyKind::kFifo, PolicyKind::kLru,
                                           PolicyKind::kCmcp),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// The trace is part of the determinism contract: identical config + seed
// must give byte-identical exports in both formats.
TEST(Determinism, TraceExportsAreByteIdentical) {
  const sim::trace::Metadata meta = {{"seed", "42"}, {"policy", "CMCP"}};
  const sim::trace::Summary summary = {{"makespan", 0}};

  std::string perfetto[2], jsonl[2];
  for (int i = 0; i < 2; ++i) {
    sim::trace::EventSink sink;
    run_once(PolicyKind::kCmcp, 42, wl::PaperWorkload::kBt, &sink);
    EXPECT_FALSE(sink.empty());
    std::ostringstream p, j;
    sim::trace::export_perfetto(sink, meta, p);
    sim::trace::export_jsonl(sink, meta, summary, j);
    perfetto[i] = p.str();
    jsonl[i] = j.str();
  }
  EXPECT_EQ(perfetto[0], perfetto[1]);
  EXPECT_EQ(jsonl[0], jsonl[1]);
}

// Attaching a sink must not alter the simulated outcome.
TEST(Determinism, TracingIsObservationOnly) {
  sim::trace::EventSink sink;
  const auto traced = run_once(PolicyKind::kLru, 42, wl::PaperWorkload::kBt, &sink);
  const auto plain = run_once(PolicyKind::kLru, 42);
  EXPECT_EQ(traced.makespan, plain.makespan);
  ASSERT_EQ(traced.per_core.size(), plain.per_core.size());
  for (std::size_t c = 0; c < traced.per_core.size(); ++c)
    EXPECT_EQ(traced.per_core[c], plain.per_core[c]) << "core " << c;
}

TEST(Determinism, AllWorkloadsStable) {
  for (const auto which : wl::kAllPaperWorkloads) {
    const auto a = run_once(PolicyKind::kCmcp, 9, which);
    const auto b = run_once(PolicyKind::kCmcp, 9, which);
    EXPECT_EQ(a.makespan, b.makespan) << to_string(which);
    EXPECT_EQ(a.app_total.major_faults, b.app_total.major_faults);
  }
}

}  // namespace
}  // namespace cmcp
