// Golden chaos matrix: two policies (CMCP, FIFO) under two pinned fault
// mixes (PCIe/ack-heavy and ECC/straggler-heavy) on a memory-constrained cg
// run, with the makespan, headline counters and the full resilience report
// pinned against tests/data/golden_chaos.txt. A drift here means the fault
// schedule, the recovery protocol's costs, or their interleaving changed —
// all of which are part of the determinism contract (docs/robustness.md).
//
// Regenerate intentionally with:
//
//   CMCP_UPDATE_GOLDEN=1 ./build/tests/cmcp_tests --gtest_filter='GoldenChaos*'
//   (then review with: git diff tests/data)
//
// The Fig8StyleRow test is the issue's acceptance scenario: a paper-shaped
// memory-constrained row with 1% transient PCIe faults and 2 poisoned
// frames must complete with nonzero recoveries and zero checker violations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "metrics/resilience_report.h"
#include "sim/fault_plan.h"
#include "workloads/workload_factory.h"

#ifndef CMCP_TEST_DATA_DIR
#define CMCP_TEST_DATA_DIR "tests/data"
#endif

namespace cmcp {
namespace {

std::string golden_path() {
  return std::string(CMCP_TEST_DATA_DIR) + "/golden_chaos.txt";
}

struct ChaosCell {
  const char* label;
  PolicyKind policy;
  const char* faults;
};

// Two mixes: transfer/ack failures stress the retry/backoff machinery,
// poison/straggler stress quarantine and the inflation accounting.
constexpr const char* kPcieMix =
    "seed=101,pcie=0.05,sticky=0.01,ack=0.05,poison=0,straggler=0";
constexpr const char* kEccMix =
    "seed=202,pcie=0,sticky=0,ack=0,poison=3,straggler=0.25";

constexpr ChaosCell kMatrix[] = {
    {"cmcp-pcie", PolicyKind::kCmcp, kPcieMix},
    {"cmcp-ecc", PolicyKind::kCmcp, kEccMix},
    {"fifo-pcie", PolicyKind::kFifo, kPcieMix},
    {"fifo-ecc", PolicyKind::kFifo, kEccMix},
};

core::SimulationConfig cell_config(const ChaosCell& cell) {
  core::SimulationConfig config;
  config.machine.num_cores = 8;
  config.memory_fraction = 0.37;  // cg's paper constraint: heavy eviction
  config.policy.kind = cell.policy;
  EXPECT_EQ(sim::FaultPlanConfig::parse(cell.faults, &config.faults), "");
  return config;
}

core::SimulationResult run_cell(const ChaosCell& cell) {
  wl::WorkloadParams params;
  params.cores = 8;
  params.scale = 0.15;
  params.seed = 20260808;
  const auto w = wl::make_paper_workload(wl::PaperWorkload::kCg, params);
  return core::run_simulation(cell_config(cell), *w);
}

std::string cell_report(const ChaosCell& cell) {
  const core::SimulationResult result = run_cell(cell);
  EXPECT_TRUE(result.faults_enabled);
  std::ostringstream out;
  out << "== " << cell.label << " ==\n"
      << "makespan            " << result.makespan << "\n"
      << "major_faults        " << result.app_total.major_faults << "\n"
      << "evictions           " << result.app_total.evictions << "\n"
      << "faults_injected     " << result.app_total.faults_injected << "\n"
      << "fault_retries       " << result.app_total.fault_retries << "\n"
      << "fault_give_ups      " << result.app_total.fault_give_ups << "\n";
  sim::FaultPlanConfig fc;
  EXPECT_EQ(sim::FaultPlanConfig::parse(cell.faults, &fc), "");
  out << metrics::format_resilience_report(fc, result.fault_stats,
                                           result.capacity_units);
  return out.str();
}

TEST(GoldenChaos, PolicyByFaultMixMatrixMatchesCommittedGolden) {
  std::ostringstream actual;
  for (const ChaosCell& cell : kMatrix) actual << cell_report(cell);

  if (std::getenv("CMCP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual.str();
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good())
      << "missing " << golden_path()
      << " — regenerate with CMCP_UPDATE_GOLDEN=1 and commit it";
  std::stringstream expected;
  expected << in.rdbuf();

  std::istringstream actual_lines(actual.str());
  std::istringstream expected_lines(expected.str());
  std::string a;
  std::string e;
  std::size_t line = 0;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(actual_lines, a));
    const bool more_e = static_cast<bool>(std::getline(expected_lines, e));
    ++line;
    if (!more_a && !more_e) break;
    ASSERT_EQ(more_a, more_e) << "golden file length differs at line " << line;
    ASSERT_EQ(a, e) << "first divergence at golden_chaos.txt:" << line;
  }
}

TEST(GoldenChaos, MatrixCellsActuallyInjectAndRecover) {
  // The golden is only meaningful if both mixes genuinely exercise their
  // machinery: the PCIe mix must retry, the ECC mix must quarantine.
  const core::SimulationResult pcie = run_cell(kMatrix[0]);
  EXPECT_GT(pcie.fault_stats.injected[0] + pcie.fault_stats.injected[1], 0u);
  EXPECT_GT(pcie.fault_stats.retries, 0u);
  EXPECT_GT(pcie.fault_stats.recovery_cycles, 0u);
  const core::SimulationResult ecc = run_cell(kMatrix[1]);
  EXPECT_GT(ecc.fault_stats.frames_quarantined, 0u);
  EXPECT_GT(ecc.fault_stats.straggler_cycles, 0u);
}

#if CMCP_SIMCHECK_ENABLED
TEST(GoldenChaos, Fig8StyleRowCompletesWithZeroViolations) {
  // The issue's acceptance scenario: the paper's memory-constrained shape
  // with 1% transient PCIe failures and 2 poisoned frames. The run must
  // complete, recover (nonzero retries or quarantines), and pass every
  // invariant sweep.
  wl::WorkloadParams params;
  params.cores = 8;
  params.scale = 0.15;
  params.seed = 20260808;
  const auto w = wl::make_paper_workload(wl::PaperWorkload::kCg, params);
  core::SimulationConfig config;
  config.machine.num_cores = 8;
  config.memory_fraction = 0.37;
  config.policy.kind = PolicyKind::kCmcp;
  ASSERT_EQ(
      sim::FaultPlanConfig::parse("seed=8,pcie=0.01,poison=2", &config.faults),
      "");
  core::Simulation sim(config, *w);
  ASSERT_NE(sim.check_registry(), nullptr);
  std::vector<sim::CheckViolation> captured;
  sim.check_registry()->set_handler(
      [&](const sim::CheckViolation& v) { captured.push_back(v); });
  sim.check_registry()->set_stride(sim::CheckPoint::kAfterEviction, 1);
  const core::SimulationResult result = sim.run();
  EXPECT_GT(result.makespan, 0u);
  ASSERT_TRUE(result.faults_enabled);
  EXPECT_GT(result.fault_stats.total_injected(), 0u);
  EXPECT_GT(result.fault_stats.retries + result.fault_stats.frames_quarantined,
            0u);
  EXPECT_TRUE(captured.empty())
      << captured.size() << " violations, first: " << captured[0].checker
      << "/" << captured[0].invariant << ": " << captured[0].message;
}
#endif  // CMCP_SIMCHECK_ENABLED

}  // namespace
}  // namespace cmcp
