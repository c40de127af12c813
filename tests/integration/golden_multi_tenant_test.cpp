// Golden multi-tenant matrix: a 2-tenant composition (cg + bt sharing one
// device) run through the full policy matrix (FIFO, LRU-approx, CMCP, ARC,
// CLOCK) and both frame-partition kinds, with the per-tenant fault
// rates, shootdown-interference matrix and fairness report serialized
// through metrics::write_tenant_report into ResultWriter JSON and pinned
// against tests/data/golden_multi_tenant.txt.
//
// This is the multi-tenant sibling of golden_results_test.cpp: run-vs-run
// determinism is checked here too, but the committed golden is what catches
// a silent behaviour change (a partition tie-break flipping, an interference
// count drifting) across commits. Regenerate intentionally with:
//
//   CMCP_UPDATE_GOLDEN=1 ./build/tests/cmcp_tests --gtest_filter='GoldenMultiTenant*'
//   (then review with: git diff tests/data)
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/multi_tenant.h"
#include "metrics/tenant_report.h"
#include "mm/frame_partition.h"
#include "policy/policy_factory.h"
#include "workloads/workload_factory.h"

#ifndef CMCP_TEST_DATA_DIR
#define CMCP_TEST_DATA_DIR "tests/data"
#endif

namespace cmcp {
namespace {

std::string golden_path() {
  return std::string(CMCP_TEST_DATA_DIR) + "/golden_multi_tenant.txt";
}

/// cg (4 cores) + bt (4 cores), scaled down far enough that the whole
/// matrix runs in seconds but the shared device still thrashes: both
/// tenants fault, evict and shoot down throughout the run.
wl::MultiTenantSpec make_two_tenants() {
  wl::WorkloadParams base;
  base.cores = 4;
  base.scale = 0.10;
  base.seed = 20260808;
  wl::MultiTenantSpec spec;
  spec.add(wl::make_paper_workload(wl::PaperWorkload::kCg, base));
  spec.add(wl::make_paper_workload(wl::PaperWorkload::kBt, base));
  return spec;
}

struct MatrixCell {
  const char* label;
  PolicyKind policy;
  mm::PartitionKind partition;
};

constexpr MatrixCell kMatrix[] = {
    {"fifo-prop", PolicyKind::kFifo, mm::PartitionKind::kProportionalShare},
    {"lru-prop", PolicyKind::kLru, mm::PartitionKind::kProportionalShare},
    {"cmcp-prop", PolicyKind::kCmcp, mm::PartitionKind::kProportionalShare},
    {"arc-prop", PolicyKind::kArc, mm::PartitionKind::kProportionalShare},
    {"clock-prop", PolicyKind::kClock, mm::PartitionKind::kProportionalShare},
    {"cmcp-none", PolicyKind::kCmcp, mm::PartitionKind::kNone},
};

core::MultiTenantResult run_cell(const MatrixCell& cell) {
  wl::MultiTenantSpec spec = make_two_tenants();
  core::MultiTenantConfig config;
  config.partition = cell.partition;
  // Tight enough that the tenants genuinely contend for frames.
  config.memory_fraction = 0.30;
  std::vector<core::TenantRunConfig> tenants(2);
  for (core::TenantRunConfig& t : tenants) t.policy.kind = cell.policy;
  return core::run_multi_tenant(config, spec, tenants);
}

std::string report_json(const core::MultiTenantResult& result) {
  metrics::ResultWriter writer;
  metrics::write_tenant_report(result, writer);
  std::ostringstream json;
  writer.to_json(json);
  return json.str();
}

TEST(GoldenMultiTenant, PolicyAndPartitionMatrixMatchesCommittedGolden) {
  std::ostringstream actual;
  for (const MatrixCell& cell : kMatrix)
    actual << "== " << cell.label << " ==\n" << report_json(run_cell(cell));

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
    ASSERT_EQ(a, e) << "first divergence at golden_multi_tenant.txt:" << line;
  }
}

TEST(GoldenMultiTenant, IdenticalConfigIdenticalReport) {
  const std::string first = report_json(run_cell(kMatrix[2]));   // cmcp-prop
  const std::string second = report_json(run_cell(kMatrix[2]));
  EXPECT_EQ(first, second);
}

TEST(GoldenMultiTenant, ReportCarriesInterferenceAndFairness) {
  const core::MultiTenantResult result = run_cell(kMatrix[2]);  // cmcp-prop
  ASSERT_EQ(result.tenants.size(), 2u);
  ASSERT_EQ(result.interference.size(), 4u);
  for (const core::TenantResult& t : result.tenants) {
    EXPECT_GT(t.total.accesses, 0u);
    EXPECT_GT(t.total.major_faults, 0u);
    EXPECT_GT(t.makespan, 0u);
  }
  // The interference matrix mirrors the per-receiver counter exactly:
  // column sums == remote invalidations received by that tenant.
  for (std::size_t receiver = 0; receiver < 2; ++receiver) {
    const std::uint64_t column = result.interference[0 * 2 + receiver] +
                                 result.interference[1 * 2 + receiver];
    EXPECT_EQ(column,
              result.tenants[receiver].total.remote_invalidations_received)
        << "receiver " << receiver;
  }

  const std::string json = report_json(result);
  EXPECT_NE(json.find("\"jain_fairness_progress\""), std::string::npos);
  EXPECT_NE(json.find("\"invals_from_0\""), std::string::npos);
}

}  // namespace
}  // namespace cmcp
