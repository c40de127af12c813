#include "sim/cost_model.h"

#include <gtest/gtest.h>

namespace cmcp::sim {
namespace {

TEST(CostModel, KncDefaultsAreSane) {
  const CostModel cost{};
  EXPECT_NEAR(cost.clock_ghz, 1.053, 1e-9);  // Phi 5110P
  EXPECT_NEAR(cost.pcie_gb_per_s, 6.0, 1e-9);  // paper's measured bandwidth
  EXPECT_GT(cost.tlb_walk_4k, cost.tlb_hit);
  EXPECT_GE(cost.tlb_walk_4k, cost.tlb_walk_2m);  // 2 MB walks end earlier
  EXPECT_GT(cost.ipi_receive, cost.invlpg);
  EXPECT_GT(cost.scanner_threads, 0u);
  EXPECT_GT(cost.scanner_flush_batch, 0u);
}

TEST(CostModel, PcieTransferCyclesScaleLinearly) {
  const CostModel cost{};
  const Cycles one = cost.pcie_transfer_cycles(1 << 20);
  const Cycles four = cost.pcie_transfer_cycles(4 << 20);
  EXPECT_NEAR(static_cast<double>(four), 4.0 * one, 4.0);
  EXPECT_EQ(cost.pcie_transfer_cycles(0), 0u);
}

TEST(CostModel, PcieMatchesSixGBPerSecond) {
  const CostModel cost{};
  // 6 GB at 6 GB/s = 1 s = clock_ghz * 1e9 cycles.
  const Cycles cycles = cost.pcie_transfer_cycles(6ull * 1000 * 1000 * 1000);
  EXPECT_NEAR(static_cast<double>(cycles), cost.clock_ghz * 1e9,
              cost.clock_ghz * 1e6);
}

TEST(CostModel, WalkCostPerSizeClass) {
  const CostModel cost{};
  EXPECT_EQ(cost.walk_cost(PageSizeClass::k4K), cost.tlb_walk_4k);
  EXPECT_EQ(cost.walk_cost(PageSizeClass::k64K), cost.tlb_walk_64k);
  EXPECT_EQ(cost.walk_cost(PageSizeClass::k2M), cost.tlb_walk_2m);
}

TEST(CostModel, MapCostReflects64kGroupSetup) {
  // Paper section 4: a 64 kB mapping means initializing 16 separate 4 kB
  // PTEs; a 2 MB mapping is a single entry.
  const CostModel cost{};
  EXPECT_EQ(cost.map_cost(PageSizeClass::k4K), cost.pte_setup);
  EXPECT_EQ(cost.map_cost(PageSizeClass::k64K), 16 * cost.pte_setup);
  EXPECT_EQ(cost.map_cost(PageSizeClass::k2M), cost.pte_setup);
}

TEST(CostModel, ScanPeriodIsTenMilliseconds) {
  const CostModel cost{};
  const double ms = static_cast<double>(cost.scan_period) / (cost.clock_ghz * 1e6);
  EXPECT_NEAR(ms, 10.0, 1.0);  // paper: 10 ms timer
}

}  // namespace
}  // namespace cmcp::sim
