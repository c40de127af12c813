// Engine-level tests: barriers, op semantics, result assembly.
#include "core/simulation.h"

#include <gtest/gtest.h>


namespace cmcp::core {
namespace {

/// Minimal scripted workload for engine tests.
class ScriptedWorkload final : public wl::Workload {
 public:
  ScriptedWorkload(CoreId cores, std::uint64_t pages,
                   std::vector<std::vector<wl::Op>> scripts)
      : cores_(cores), pages_(pages) {
    for (auto& ops : scripts)
      scripts_.push_back(std::make_shared<const std::vector<wl::Op>>(std::move(ops)));
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

SimulationConfig basic_config(CoreId cores) {
  SimulationConfig config;
  config.machine.num_cores = cores;
  config.memory_fraction = 1.0;
  return config;
}

TEST(Simulation, ComputeOpsAdvanceClock) {
  ScriptedWorkload w(1, 8, {{wl::Op::compute(1000), wl::Op::compute(500)}});
  auto result = run_simulation(basic_config(1), w);
  EXPECT_EQ(result.makespan, 1500u);
  EXPECT_EQ(result.app_total.cycles_compute, 1500u);
  EXPECT_EQ(result.app_total.accesses, 0u);
}

TEST(Simulation, AccessOpTouchesEveryPageInRange) {
  ScriptedWorkload w(1, 16, {{wl::Op::access(0, false, 16)}});
  auto result = run_simulation(basic_config(1), w);
  EXPECT_EQ(result.app_total.accesses, 16u);
  EXPECT_EQ(result.app_total.major_faults, 16u);
}

TEST(Simulation, RepeatReferencesSamePage) {
  ScriptedWorkload w(1, 4, {{wl::Op::access(2, false, 1, 5)}});
  auto result = run_simulation(basic_config(1), w);
  EXPECT_EQ(result.app_total.accesses, 5u);
  EXPECT_EQ(result.app_total.major_faults, 1u);  // 4 TLB hits after the fault
}

TEST(Simulation, PerPageComputeCharged) {
  ScriptedWorkload w(1, 8, {{wl::Op::access(0, false, 4, 1, /*compute=*/100)}});
  auto result = run_simulation(basic_config(1), w);
  EXPECT_EQ(result.app_total.cycles_compute, 400u);
}

TEST(Simulation, StrideSkipsPages) {
  ScriptedWorkload w(1, 32, {{wl::Op::access(0, false, 4, 1, 0, /*stride=*/8)}});
  auto result = run_simulation(basic_config(1), w);
  EXPECT_EQ(result.app_total.major_faults, 4u);  // pages 0, 8, 16, 24
}

TEST(Simulation, BarrierSynchronizesClocks) {
  // Core 0 computes 10k cycles, core 1 computes 100; after the barrier both
  // run one more op. The makespan reflects the straggler.
  ScriptedWorkload w(2, 8,
                     {{wl::Op::compute(10000), wl::Op::barrier(), wl::Op::compute(5)},
                      {wl::Op::compute(100), wl::Op::barrier(), wl::Op::compute(5)}});
  auto result = run_simulation(basic_config(2), w);
  EXPECT_EQ(result.makespan, 10005u);
  // The fast core idled at the barrier.
  EXPECT_EQ(result.per_core[1].cycles_barrier, 9900u);
  EXPECT_EQ(result.per_core[0].cycles_barrier, 0u);
}

TEST(Simulation, ConsecutiveBarriers) {
  std::vector<wl::Op> script = {wl::Op::barrier(), wl::Op::barrier(),
                                wl::Op::compute(10)};
  ScriptedWorkload w(3, 8, {script, script, script});
  auto result = run_simulation(basic_config(3), w);
  EXPECT_EQ(result.makespan, 10u);
}

TEST(Simulation, EndedCoreReleasesBarrier) {
  // Core 1 ends without reaching the barrier; core 0 must not deadlock.
  ScriptedWorkload w(2, 8,
                     {{wl::Op::compute(50), wl::Op::barrier(), wl::Op::compute(5)},
                      {wl::Op::compute(20)}});
  auto result = run_simulation(basic_config(2), w);
  EXPECT_EQ(result.makespan, 55u);
}

TEST(Simulation, CapacityFromMemoryFraction) {
  SimulationConfig config = basic_config(1);
  config.memory_fraction = 0.5;
  ScriptedWorkload w(1, 100, {{wl::Op::access(0, false, 100)}});
  Simulation sim(config, w);
  auto result = sim.run();
  EXPECT_EQ(result.capacity_units, 50u);
  EXPECT_EQ(result.footprint_units, 100u);
  EXPECT_EQ(result.app_total.evictions, 50u);
}

TEST(Simulation, PreloadForcesFullCapacity) {
  SimulationConfig config = basic_config(2);
  config.preload = true;
  config.memory_fraction = 0.1;  // overridden by preload
  ScriptedWorkload w(2, 64,
                     {{wl::Op::access(0, false, 64)}, {wl::Op::access(0, false, 64)}});
  auto result = run_simulation(config, w);
  EXPECT_EQ(result.capacity_units, 64u);
  EXPECT_EQ(result.app_total.major_faults, 0u);
  EXPECT_EQ(result.app_total.pcie_bytes_in, 0u);
}

TEST(Simulation, ResultAveragesMatchTotals) {
  ScriptedWorkload w(2, 16,
                     {{wl::Op::access(0, false, 8)}, {wl::Op::access(8, false, 8)}});
  auto result = run_simulation(basic_config(2), w);
  EXPECT_DOUBLE_EQ(result.avg_major_faults_per_core(),
                   static_cast<double>(result.app_total.major_faults) / 2.0);
  EXPECT_DOUBLE_EQ(result.avg_dtlb_misses_per_core(),
                   static_cast<double>(result.app_total.dtlb_misses) / 2.0);
}

TEST(SimulationDeath, RunIsSingleUse) {
  ScriptedWorkload w(1, 8, {{wl::Op::compute(1)}});
  Simulation sim(basic_config(1), w);
  sim.run();
  EXPECT_DEATH(sim.run(), "single-use");
}

TEST(SimulationDeath, ZeroScanPeriodAbortsInsteadOfHanging) {
  // A zero period would leave the scanner's next tick where it is, so the
  // periodic loop would never catch up with the watermark.
  ScriptedWorkload w(1, 8, {{wl::Op::compute(1)}});
  SimulationConfig config = basic_config(1);
  config.machine.cost.scan_period = 0;
  EXPECT_DEATH(run_simulation(config, w), "scan_period must be in");
}

}  // namespace
}  // namespace cmcp::core
