// Extension features: hardware TLB-coherence directory, sequential
// prefetch, custom policy injection.
#include <gtest/gtest.h>

#include "core/simulation.h"
#include "policy/fifo.h"
#include "workloads/workload_factory.h"

namespace cmcp::core {
namespace {

// --- hardware TLB directory -------------------------------------------------

struct HwFixture {
  explicit HwFixture(sim::TlbCoherence coherence, CoreId cores = 4)
      : machine([&] {
          sim::MachineConfig mc;
          mc.num_cores = cores;
          mc.tlb_coherence = coherence;
          return mc;
        }()),
        area(0, 64, PageSizeClass::k4K),
        mm(machine, {{area, MemoryManagerConfig{}, 0, cores}}, 2,
           mm::PartitionKind::kNone) {}

  void touch(CoreId core, Vpn vpn) {
    machine.advance(core, mm.access(core, vpn, false, machine.clock(core)));
  }

  sim::Machine machine;
  mm::ComputationArea area;
  MemoryManager mm;
};

TEST(HardwareDirectory, NoInterruptsNoSlot) {
  HwFixture f(sim::TlbCoherence::kHardwareDirectory);
  f.touch(0, 0);
  f.touch(1, 0);  // unit 0 mapped by cores 0, 1
  f.touch(2, 1);
  f.touch(3, 2);  // eviction of unit 0: hardware invalidation

  // Receivers lost their entries but took no interrupts.
  EXPECT_EQ(f.machine.counters(0).ipis_received, 0u);
  EXPECT_EQ(f.machine.counters(1).ipis_received, 0u);
  EXPECT_EQ(f.machine.counters(0).cycles_interrupt, 0u);
  EXPECT_GE(f.machine.counters(0).remote_invalidations_received, 1u);
  EXPECT_EQ(f.machine.interconnect().slot_busy_until(), 0u);
  // The stale translation really is gone: core 0 re-faults.
  const auto faults_before = f.machine.counters(0).major_faults;
  f.touch(0, 0);
  EXPECT_EQ(f.machine.counters(0).major_faults, faults_before + 1);
}

TEST(HardwareDirectory, CheaperThanIpis) {
  HwFixture hw(sim::TlbCoherence::kHardwareDirectory);
  HwFixture sw(sim::TlbCoherence::kIpiShootdown);
  for (auto* f : {&hw, &sw}) {
    f->touch(0, 0);
    f->touch(1, 0);
    f->touch(2, 1);
    f->touch(3, 2);  // eviction with 2 mapping cores
  }
  EXPECT_LT(hw.machine.counters(3).cycles_shootdown,
            sw.machine.counters(3).cycles_shootdown);
  EXPECT_EQ(sw.machine.counters(0).ipis_received, 1u);
}

TEST(HardwareDirectory, EndToEndFasterForRegularTables) {
  // The DiDi argument: with hardware invalidation, regular tables stop
  // collapsing — their every-core shootdowns become cheap.
  wl::WorkloadParams params;
  params.cores = 16;
  params.scale = 0.25;
  const auto w = wl::make_paper_workload(wl::PaperWorkload::kBt, params);
  SimulationConfig config;
  config.machine.num_cores = 16;
  config.pt_kind = PageTableKind::kRegular;
  config.memory_fraction = 0.64;

  config.machine.tlb_coherence = sim::TlbCoherence::kIpiShootdown;
  const auto sw = run_simulation(config, *w);
  config.machine.tlb_coherence = sim::TlbCoherence::kHardwareDirectory;
  const auto hw = run_simulation(config, *w);
  EXPECT_LT(hw.makespan, sw.makespan);
  EXPECT_EQ(hw.app_total.cycles_interrupt, 0u);
}

// --- sequential prefetch ------------------------------------------------------

struct PrefetchFixture {
  explicit PrefetchFixture(unsigned degree, std::uint64_t capacity = 32)
      : machine([] {
          sim::MachineConfig mc;
          mc.num_cores = 2;
          return mc;
        }()),
        area(0, 64, PageSizeClass::k4K),
        mm(machine, {{area, [&] {
                        MemoryManagerConfig config;
                        config.prefetch_degree = degree;
                        return config;
                      }(),
                      0, 2}},
           capacity, mm::PartitionKind::kNone) {}

  void touch(CoreId core, Vpn vpn) {
    machine.advance(core, mm.access(core, vpn, false, machine.clock(core)));
  }

  sim::Machine machine;
  mm::ComputationArea area;
  MemoryManager mm;
};

TEST(Prefetch, DisabledByDefault) {
  PrefetchFixture f(0);
  f.touch(0, 0);
  EXPECT_EQ(f.machine.counters(0).prefetches, 0u);
  EXPECT_EQ(f.mm.space(0).registry().size(), 1u);
}

TEST(Prefetch, FetchesFollowingUnits) {
  PrefetchFixture f(3);
  f.touch(0, 0);
  EXPECT_EQ(f.machine.counters(0).prefetches, 3u);
  EXPECT_EQ(f.mm.space(0).registry().size(), 4u);  // demand + 3 readahead
  for (UnitIdx u = 1; u <= 3; ++u) {
    ASSERT_NE(f.mm.space(0).registry().find(u), nullptr);
    EXPECT_GT(f.mm.space(0).registry().find(u)->ready_at, 0u);
  }
  // Prefetched units are resident but unmapped until touched.
  EXPECT_FALSE(f.mm.space(0).page_table().any_mapping(1));
}

TEST(Prefetch, SequentialWalkTurnsFaultsIntoMinorFaults) {
  PrefetchFixture with(4);
  PrefetchFixture without(0);
  for (Vpn v = 0; v < 32; ++v) {
    with.touch(0, v);
    without.touch(0, v);
  }
  EXPECT_LT(with.machine.counters(0).major_faults,
            without.machine.counters(0).major_faults / 2);
  EXPECT_GT(with.machine.counters(0).prefetch_hits, 20u);
  // Same data still crossed the link exactly once per unit.
  EXPECT_EQ(with.machine.counters(0).pcie_bytes_in,
            without.machine.counters(0).pcie_bytes_in);
}

TEST(Prefetch, NeverEvicts) {
  PrefetchFixture f(8, /*capacity=*/2);
  f.touch(0, 0);  // 1 free frame left: at most 1 prefetch
  EXPECT_LE(f.machine.counters(0).prefetches, 1u);
  EXPECT_EQ(f.machine.counters(0).evictions, 0u);
  EXPECT_LE(f.mm.space(0).registry().size(), 2u);
}

TEST(Prefetch, PrefetchedPageIsEvictableBeforeUse) {
  PrefetchFixture f(2, /*capacity=*/4);
  f.touch(0, 0);  // + prefetch units 1, 2
  f.touch(0, 40);
  f.touch(0, 50);  // capacity reached; next fault evicts (FIFO head = unit 0)
  f.touch(0, 60);
  f.touch(0, 62);  // may evict a never-touched prefetched unit — must not die
  EXPECT_GT(f.machine.counters(0).evictions, 0u);
}

TEST(Prefetch, EndToEndHelpsSequentialWorkload) {
  wl::WorkloadParams params;
  params.cores = 8;
  params.scale = 0.25;
  const auto w = wl::make_paper_workload(wl::PaperWorkload::kBt, params);
  SimulationConfig config;
  config.machine.num_cores = 8;
  config.memory_fraction = 0.64;
  const auto off = run_simulation(config, *w);
  config.prefetch_degree = 4;
  const auto on = run_simulation(config, *w);
  EXPECT_LT(on.app_total.major_faults, off.app_total.major_faults);
  EXPECT_GT(on.app_total.prefetch_hits, 0u);
}

// --- custom policy injection ---------------------------------------------------

TEST(CustomPolicy, FactoryOverridesBuiltIn) {
  struct CountingFifo final : policy::FifoPolicy {
    std::uint64_t* victims;
    explicit CountingFifo(std::uint64_t* v) : victims(v) {}
    mm::ResidentPage* pick_victim(CoreId core, Cycles& extra) override {
      ++*victims;
      return FifoPolicy::pick_victim(core, extra);
    }
  };

  std::uint64_t victims = 0;
  wl::WorkloadParams params;
  params.cores = 4;
  params.scale = 0.1;
  const auto w = wl::make_paper_workload(wl::PaperWorkload::kCg, params);
  SimulationConfig config;
  config.machine.num_cores = 4;
  config.memory_fraction = 0.4;
  config.custom_policy = [&victims](policy::PolicyHost&) {
    return std::make_unique<CountingFifo>(&victims);
  };
  const auto result = run_simulation(config, *w);
  EXPECT_GT(victims, 0u);
  EXPECT_EQ(victims, result.app_total.evictions);
}

}  // namespace
}  // namespace cmcp::core
