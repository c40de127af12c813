// Determinism under fault injection: a fixed (workload seed, FaultPlanConfig)
// pair must replay bit-identically — same traces, same counters, same
// resilience stats — serially and under the `-j` parallel runner; and an
// all-zero fault spec must be byte-identical to no fault spec at all.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/simulation.h"
#include "metrics/experiment.h"
#include "metrics/parallel_runner.h"
#include "sim/fault_plan.h"
#include "sim/trace.h"
#include "workloads/workload_factory.h"

namespace cmcp {
namespace {

constexpr const char* kFaultMix =
    "seed=13,pcie=0.05,sticky=0.01,ack=0.05,poison=2,straggler=0.2";

core::SimulationResult run_faulted(const char* faults,
                                   sim::trace::EventSink* sink = nullptr) {
  wl::WorkloadParams params;
  params.cores = 8;
  params.scale = 0.15;
  params.seed = 42;
  const auto w = wl::make_paper_workload(wl::PaperWorkload::kBt, params);
  core::SimulationConfig config;
  config.machine.num_cores = 8;
  config.memory_fraction = wl::paper_memory_fraction(wl::PaperWorkload::kBt);
  config.policy.kind = PolicyKind::kCmcp;
  config.trace = sink;
  if (faults != nullptr) {
    EXPECT_EQ(sim::FaultPlanConfig::parse(faults, &config.faults), "");
  }
  return core::run_simulation(config, *w);
}

std::string jsonl_of(const char* faults) {
  sim::trace::EventSink sink;
  const auto result = run_faulted(faults, &sink);
  const sim::trace::Metadata meta = {{"seed", "42"}, {"policy", "cmcp"}};
  std::ostringstream out;
  sim::trace::export_jsonl(sink, meta, metrics::result_summary(result), out);
  return out.str();
}

TEST(FaultDeterminism, SameSeedAndPlanReplaysByteIdentically) {
  const std::string a = jsonl_of(kFaultMix);
  const std::string b = jsonl_of(kFaultMix);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The chaos actually happened: fault events are in the stream.
  EXPECT_NE(a.find("\"fault_inject\""), std::string::npos);
}

TEST(FaultDeterminism, StatsReplayExactly) {
  const auto a = run_faulted(kFaultMix);
  const auto b = run_faulted(kFaultMix);
  ASSERT_TRUE(a.faults_enabled);
  EXPECT_GT(a.fault_stats.total_injected(), 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.fault_stats.total_injected(), b.fault_stats.total_injected());
  EXPECT_EQ(a.fault_stats.retries, b.fault_stats.retries);
  EXPECT_EQ(a.fault_stats.give_ups, b.fault_stats.give_ups);
  EXPECT_EQ(a.fault_stats.frames_quarantined,
            b.fault_stats.frames_quarantined);
  EXPECT_EQ(a.fault_stats.recovery_cycles, b.fault_stats.recovery_cycles);
  EXPECT_EQ(a.fault_stats.straggler_cycles, b.fault_stats.straggler_cycles);
}

TEST(FaultDeterminism, DifferentFaultSeedsDiverge) {
  const auto a = run_faulted("seed=1,pcie=0.05,sticky=0.01,poison=2");
  const auto b = run_faulted("seed=2,pcie=0.05,sticky=0.01,poison=2");
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(FaultDeterminism, ZeroRatePlanIsByteIdenticalToNoPlan) {
  // An all-zero spec parses to a disabled plan: the run must take the exact
  // pre-fault code paths and export the exact pre-fault bytes.
  const std::string zero =
      jsonl_of("seed=99,pcie=0,sticky=0,ack=0,poison=0,straggler=0");
  const std::string none = jsonl_of(nullptr);
  EXPECT_EQ(zero, none);
  EXPECT_EQ(zero.find("fault_inject"), std::string::npos);
  EXPECT_EQ(zero.find("faults_injected"), std::string::npos);
}

TEST(FaultDeterminism, FaultedRunsAreIndependent) {
  // Two faulted simulations back-to-back in one process: the second must not
  // inherit any plan state from the first (each owns a private FaultPlan).
  const auto first = run_faulted(kFaultMix);
  (void)run_faulted("seed=77,pcie=0.2,sticky=0.1,poison=4,straggler=0.5");
  const auto again = run_faulted(kFaultMix);
  EXPECT_EQ(first.makespan, again.makespan);
  EXPECT_EQ(first.fault_stats.total_injected(),
            again.fault_stats.total_injected());
}

// Named so the TSan CI job's `-R ParallelRunner` filter picks it up: the
// worker pool must not perturb per-simulation fault streams.
TEST(ParallelRunner, FaultedSpecsMatchSerialExecution) {
  std::vector<metrics::RunSpec> specs;
  for (const PolicyKind policy : {PolicyKind::kFifo, PolicyKind::kCmcp}) {
    for (const std::uint64_t seed : {3u, 13u}) {
      metrics::RunSpec spec;
      spec.workload = wl::PaperWorkload::kScale;
      spec.cores = 4;
      spec.scale = 0.05;
      spec.policy.kind = policy;
      ASSERT_EQ(sim::FaultPlanConfig::parse(kFaultMix, &spec.faults), "");
      spec.faults.seed = seed;
      specs.push_back(spec);
    }
  }
  const auto parallel = metrics::run_specs_parallel(specs, 4);
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto serial = metrics::run_spec(specs[i]);
    ASSERT_TRUE(parallel[i].faults_enabled) << "spec " << i;
    EXPECT_EQ(parallel[i].makespan, serial.makespan) << "spec " << i;
    EXPECT_EQ(parallel[i].fault_stats.total_injected(),
              serial.fault_stats.total_injected())
        << "spec " << i;
    EXPECT_EQ(parallel[i].fault_stats.retries, serial.fault_stats.retries);
    EXPECT_EQ(parallel[i].fault_stats.frames_quarantined,
              serial.fault_stats.frames_quarantined);
  }
}

}  // namespace
}  // namespace cmcp
