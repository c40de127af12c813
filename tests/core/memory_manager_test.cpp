// Fault-path behaviour of the hierarchical memory manager.
#include "core/memory_manager.h"

#include <gtest/gtest.h>

namespace cmcp::core {
namespace {

struct Fixture {
  explicit Fixture(std::uint64_t capacity, PageTableKind pt = PageTableKind::kPspt,
                   PolicyKind policy = PolicyKind::kFifo, CoreId cores = 4,
                   PageSizeClass size = PageSizeClass::k4K, bool preload = false,
                   std::uint64_t area_pages = 64)
      : machine([&] {
          sim::MachineConfig mc;
          mc.num_cores = cores;
          mc.page_size = size;
          return mc;
        }()),
        area(0, area_pages, size),
        mm(machine, {{area, [&] {
                        MemoryManagerConfig config;
                        config.pt_kind = pt;
                        config.policy.kind = policy;
                        config.preload = preload;
                        return config;
                      }(),
                      0, cores}},
           capacity, mm::PartitionKind::kNone) {}

  Cycles touch(CoreId core, Vpn vpn, bool write = false) {
    const Cycles cost = mm.access(core, vpn, write, machine.clock(core));
    machine.advance(core, cost);
    return cost;
  }

  sim::Machine machine;
  mm::ComputationArea area;
  MemoryManager mm;
};

TEST(MemoryManager, FirstTouchMajorFaultFetchesOverPcie) {
  Fixture f(16);
  f.touch(0, 5);
  const auto& ctr = f.machine.counters(0);
  EXPECT_EQ(ctr.major_faults, 1u);
  EXPECT_EQ(ctr.dtlb_misses, 1u);
  EXPECT_EQ(ctr.pcie_bytes_in, 4096u);
  EXPECT_TRUE(f.mm.space(0).page_table().has_mapping(0, 5));
  EXPECT_EQ(f.mm.space(0).registry().size(), 1u);
}

TEST(MemoryManager, SecondTouchHitsTlb) {
  Fixture f(16);
  f.touch(0, 5);
  const Cycles hit = f.touch(0, 5);
  const auto& cost = f.machine.cost();
  EXPECT_EQ(hit, cost.tlb_hit + cost.memory_access);
  EXPECT_EQ(f.machine.counters(0).dtlb_misses, 1u);
  EXPECT_EQ(f.machine.counters(0).accesses, 2u);
}

TEST(MemoryManager, PsptSecondCoreTakesMinorFault) {
  Fixture f(16);
  f.touch(0, 5);
  f.touch(1, 5);
  EXPECT_EQ(f.machine.counters(1).minor_faults, 1u);
  EXPECT_EQ(f.machine.counters(1).major_faults, 0u);
  EXPECT_EQ(f.machine.counters(1).pcie_bytes_in, 0u);  // no data moved
  const UnitIdx unit = f.area.unit_of(5);
  EXPECT_EQ(f.mm.space(0).page_table().core_map_count(unit), 2u);
  // The policy reads the same count through its host.
  EXPECT_EQ(f.mm.space(0).core_map_count(*f.mm.space(0).registry().find(unit)),
            2u);
}

TEST(MemoryManager, RegularTableSecondCoreJustWalks) {
  Fixture f(16, PageTableKind::kRegular);
  f.touch(0, 5);
  f.touch(1, 5);
  EXPECT_EQ(f.machine.counters(1).minor_faults, 0u);
  EXPECT_EQ(f.machine.counters(1).major_faults, 0u);
  EXPECT_EQ(f.machine.counters(1).dtlb_misses, 1u);
}

TEST(MemoryManager, EvictionAtCapacityRecyclesFrames) {
  Fixture f(/*capacity=*/4);
  for (Vpn v = 0; v < 4; ++v) f.touch(0, v);
  EXPECT_EQ(f.machine.counters(0).evictions, 0u);
  f.touch(0, 10);  // capacity exceeded: FIFO evicts page 0
  EXPECT_EQ(f.machine.counters(0).evictions, 1u);
  EXPECT_EQ(f.mm.space(0).registry().size(), 4u);
  EXPECT_FALSE(f.mm.space(0).page_table().any_mapping(0));
  EXPECT_TRUE(f.mm.space(0).page_table().any_mapping(10));
}

TEST(MemoryManager, DirtyEvictionWritesBack) {
  Fixture f(1);
  f.touch(0, 0, /*write=*/true);
  f.touch(0, 1);  // evicts dirty page 0
  const auto& ctr = f.machine.counters(0);
  EXPECT_EQ(ctr.writebacks, 1u);
  EXPECT_EQ(ctr.pcie_bytes_out, 4096u);
}

TEST(MemoryManager, CleanEvictionSkipsWriteback) {
  Fixture f(1);
  f.touch(0, 0, /*write=*/false);
  f.touch(0, 1);
  EXPECT_EQ(f.machine.counters(0).writebacks, 0u);
  EXPECT_EQ(f.machine.counters(0).pcie_bytes_out, 0u);
}

TEST(MemoryManager, RefaultAfterEvictionMovesDataAgain) {
  Fixture f(1);
  f.touch(0, 0);
  f.touch(0, 1);
  f.touch(0, 0);  // page 0 must come back over PCIe
  EXPECT_EQ(f.machine.counters(0).major_faults, 3u);
  EXPECT_EQ(f.machine.counters(0).pcie_bytes_in, 3u * 4096);
}

TEST(MemoryManager, PsptEvictionShootsDownOnlyMappingCores) {
  Fixture f(/*capacity=*/2, PageTableKind::kPspt, PolicyKind::kFifo, 4);
  f.touch(0, 0);
  f.touch(1, 0);  // unit 0 mapped by cores 0 and 1
  f.touch(2, 1);  // unit 1 mapped by core 2
  f.touch(3, 2);  // evicts unit 0 -> shootdown of cores 0 and 1 only
  EXPECT_EQ(f.machine.counters(0).remote_invalidations_received, 1u);
  EXPECT_EQ(f.machine.counters(1).remote_invalidations_received, 1u);
  EXPECT_EQ(f.machine.counters(2).remote_invalidations_received, 0u);
  EXPECT_EQ(f.machine.counters(3).shootdowns_initiated, 1u);
}

TEST(MemoryManager, RegularEvictionShootsDownEveryCore) {
  Fixture f(/*capacity=*/2, PageTableKind::kRegular, PolicyKind::kFifo, 4);
  f.touch(0, 0);
  f.touch(0, 1);
  f.touch(1, 2);  // evicts unit 0: every other core gets the IPI
  // A broadcast to every core but the initiator is charged in O(1) and
  // reaches the receivers' counters when the run ends.
  f.machine.fold_broadcasts();
  for (CoreId c : {CoreId{0}, CoreId{2}, CoreId{3}})
    EXPECT_EQ(f.machine.counters(c).remote_invalidations_received, 1u)
        << "core " << c;
  // The initiator handled its own INVLPG locally.
  EXPECT_EQ(f.machine.counters(1).remote_invalidations_received, 0u);
}

TEST(MemoryManager, EvictionInvalidatesStaleTlbEntries) {
  Fixture f(2, PageTableKind::kPspt, PolicyKind::kFifo, 2);
  f.touch(0, 0);
  f.touch(0, 1);
  f.touch(1, 2);  // evicts unit 0 from core 1's fault
  // Core 0's next touch of page 0 must re-fault, not hit a stale TLB entry.
  f.touch(0, 0);
  EXPECT_EQ(f.machine.counters(0).major_faults, 3u);
}

TEST(MemoryManager, PreloadedRunNeverMovesData) {
  Fixture f(64, PageTableKind::kPspt, PolicyKind::kFifo, 4,
            PageSizeClass::k4K, /*preload=*/true);
  for (CoreId c = 0; c < 4; ++c)
    for (Vpn v = 0; v < 64; ++v) f.touch(c, v);
  metrics::CoreCounters total;
  for (CoreId c = 0; c < 4; ++c) total += f.machine.counters(c);
  EXPECT_EQ(total.major_faults, 0u);
  EXPECT_EQ(total.pcie_bytes_in, 0u);
  EXPECT_EQ(total.evictions, 0u);
  EXPECT_GT(total.minor_faults, 0u);  // first-touch PTE setup only
}

TEST(MemoryManager, SixtyFourKUnitsCoverSixteenBasePages) {
  Fixture f(4, PageTableKind::kPspt, PolicyKind::kFifo, 2,
            PageSizeClass::k64K, false, /*area_pages=*/64);
  f.touch(0, 0);
  f.touch(0, 15);  // same 64 kB unit: TLB hit, no new fault
  EXPECT_EQ(f.machine.counters(0).major_faults, 1u);
  EXPECT_EQ(f.machine.counters(0).pcie_bytes_in, 65536u);
  f.touch(0, 16);  // next unit
  EXPECT_EQ(f.machine.counters(0).major_faults, 2u);
}

TEST(MemoryManager, TwoMegUnitsMoveTwoMegabytes) {
  Fixture f(2, PageTableKind::kPspt, PolicyKind::kFifo, 1,
            PageSizeClass::k2M, false, /*area_pages=*/1024);
  f.touch(0, 3);
  EXPECT_EQ(f.machine.counters(0).pcie_bytes_in, 2u * 1024 * 1024);
  EXPECT_EQ(f.mm.space(0).area().num_units(), 2u);
}

TEST(MemoryManager, SharingHistogramCountsMappingCores) {
  Fixture f(16, PageTableKind::kPspt, PolicyKind::kFifo, 4);
  f.touch(0, 0);
  f.touch(1, 0);
  f.touch(2, 0);  // unit 0: 3 cores
  f.touch(0, 1);  // unit 1: 1 core
  f.touch(1, 2);
  f.touch(2, 2);  // unit 2: 2 cores
  const auto hist = f.mm.space(0).sharing_histogram();
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[3], 1u);
}

TEST(MemoryManager, RegularFaultsSerializeOnAddressSpaceLock) {
  Fixture f(16, PageTableKind::kRegular, PolicyKind::kFifo, 4);
  // Two cores fault at the same instant; the second must wait for the lock.
  f.mm.access(0, 0, false, 0);
  const Cycles c1 = f.mm.access(1, 1, false, 0);
  Fixture g(16, PageTableKind::kRegular, PolicyKind::kFifo, 4);
  const Cycles alone = g.mm.access(1, 1, false, 0);
  EXPECT_GT(c1, alone);
  EXPECT_GT(f.machine.counters(1).cycles_lock_wait, 0u);
}

TEST(MemoryManagerDeath, PreloadRequiresFullCapacity) {
  sim::MachineConfig mc;
  mc.num_cores = 2;
  sim::Machine machine(mc);
  mm::ComputationArea area(0, 64, PageSizeClass::k4K);
  MemoryManagerConfig config;
  config.preload = true;
  EXPECT_DEATH(MemoryManager(machine, {{area, config, 0, 2}}, 32,
                             mm::PartitionKind::kNone),
               "preload");
}

}  // namespace
}  // namespace cmcp::core
