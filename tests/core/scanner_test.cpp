// The access-bit scanner daemon: the mechanism whose shootdown cost is the
// paper's central argument against LRU-style policies on many-cores.
#include <gtest/gtest.h>

#include "core/memory_manager.h"
#include "testing/policy_harness.h"

namespace cmcp::core {
namespace {

struct ScannerFixture {
  explicit ScannerFixture(PolicyKind policy, std::uint64_t capacity = 32,
                          CoreId cores = 4,
                          PageSizeClass page_size = PageSizeClass::k4K)
      : machine([&] {
          sim::MachineConfig mc;
          mc.num_cores = cores;
          mc.page_size = page_size;
          return mc;
        }()),
        area(0, 64, page_size),
        mm(machine, {{area, [&] {
                        MemoryManagerConfig config;
                        config.pt_kind = PageTableKind::kPspt;
                        config.policy.kind = policy;
                        return config;
                      }(),
                      0, cores}},
           capacity, mm::PartitionKind::kNone) {}

  void touch(CoreId core, Vpn vpn) {
    machine.advance(core, mm.access(core, vpn, false, machine.clock(core)));
  }

  sim::Machine machine;
  mm::ComputationArea area;
  MemoryManager mm;
};

TEST(Scanner, DisabledForFifo) {
  ScannerFixture f(PolicyKind::kFifo);
  EXPECT_FALSE(f.mm.space(0).scanner_enabled());
  f.touch(0, 1);
  f.mm.run_periodic(10 * f.machine.cost().scan_period);
  EXPECT_EQ(f.mm.space(0).scans_completed(), 0u);
  EXPECT_EQ(f.machine.counters(0).remote_invalidations_received, 0u);
}

TEST(Scanner, DisabledForCmcp) {
  // The headline property: CMCP needs no usage sampling, hence no scanner
  // and no scanning shootdowns at all.
  ScannerFixture f(PolicyKind::kCmcp);
  EXPECT_FALSE(f.mm.space(0).scanner_enabled());
  for (Vpn v = 0; v < 16; ++v) f.touch(0, v);
  f.mm.run_periodic(10 * f.machine.cost().scan_period);
  EXPECT_EQ(f.mm.space(0).scans_completed(), 0u);
  for (CoreId c = 0; c < f.machine.num_cores(); ++c)
    EXPECT_EQ(f.machine.counters(c).remote_invalidations_received, 0u);
}

TEST(Scanner, RunsAtConfiguredPeriodForLru) {
  ScannerFixture f(PolicyKind::kLru);
  EXPECT_TRUE(f.mm.space(0).scanner_enabled());
  f.touch(0, 1);
  const Cycles period = f.machine.cost().scan_period;
  f.mm.run_periodic(period - 1);
  EXPECT_EQ(f.mm.space(0).scans_completed(), 0u);
  f.mm.run_periodic(period);
  EXPECT_EQ(f.mm.space(0).scans_completed(), 1u);
  f.mm.run_periodic(3 * period);
  EXPECT_EQ(f.mm.space(0).scans_completed(), 3u);
}

TEST(Scanner, ClearingAccessedBitsShootsDownMappingCores) {
  ScannerFixture f(PolicyKind::kLru);
  f.touch(0, 1);
  f.touch(1, 1);  // unit 1 mapped (and referenced) by cores 0 and 1
  f.mm.run_periodic(f.machine.cost().scan_period);
  // Both mapping cores received the invalidation; core 2 did not.
  EXPECT_GE(f.machine.counters(0).remote_invalidations_received, 1u);
  EXPECT_GE(f.machine.counters(1).remote_invalidations_received, 1u);
  EXPECT_EQ(f.machine.counters(2).remote_invalidations_received, 0u);
  // The accessed bit really is clear afterwards.
  EXPECT_FALSE(f.mm.space(0).page_table().test_accessed(f.area.unit_of(1), nullptr));
}

TEST(Scanner, UnreferencedPagesCostNoShootdowns) {
  ScannerFixture f(PolicyKind::kLru);
  f.touch(0, 1);
  const Cycles period = f.machine.cost().scan_period;
  f.mm.run_periodic(period);  // clears the bit, one shootdown
  const auto invals_after_first =
      f.machine.counters(0).remote_invalidations_received;
  f.mm.run_periodic(2 * period);  // page untouched since: no shootdown
  EXPECT_EQ(f.machine.counters(0).remote_invalidations_received,
            invals_after_first);
}

TEST(Scanner, RetouchAfterScanRefaultsTlbAndSetsBitAgain) {
  ScannerFixture f(PolicyKind::kLru);
  f.touch(0, 1);
  const auto misses_before = f.machine.counters(0).dtlb_misses;
  f.mm.run_periodic(f.machine.cost().scan_period);
  // The shootdown dropped the TLB entry: next touch walks again.
  f.touch(0, 1);
  EXPECT_EQ(f.machine.counters(0).dtlb_misses, misses_before + 1);
  EXPECT_TRUE(f.mm.space(0).page_table().test_accessed(f.area.unit_of(1), nullptr));
}

TEST(Scanner, ScannerTimeAdvancesOnItsOwnCore) {
  ScannerFixture f(PolicyKind::kLru);
  for (Vpn v = 0; v < 32; ++v) f.touch(0, v);
  const CoreId scanner = f.machine.scanner_core();
  f.mm.run_periodic(f.machine.cost().scan_period);
  EXPECT_GE(f.machine.clock(scanner), f.machine.cost().scan_period);
  // App cores paid interrupt cost but not scan-loop cost.
  EXPECT_GT(f.machine.counters(scanner).cycles_shootdown +
                f.machine.counters(scanner).cycles_lock_wait,
            0u);
}

TEST(Scanner, SixtyFourKScanReadsAllSixteenSubEntries) {
  // Paper section 4 (Fig. 5): the Xeon Phi may set a 64 kB mapping's
  // accessed bit in any of its 16 sub-entries, so the OS reads all 16 per
  // PTE. With the same resident units, a 64 kB space's scan pass costs 16x
  // the scan_pte_read cycles of a 4 kB space's.
  const auto quiet_scan_cycles = [](PageSizeClass page_size) {
    ScannerFixture f(PolicyKind::kLru, /*capacity=*/32, /*cores=*/4, page_size);
    const std::uint64_t unit_pages = base_pages_per_unit(page_size);
    for (Vpn unit = 0; unit < 4; ++unit) f.touch(0, unit * unit_pages);
    const Cycles period = f.machine.cost().scan_period;
    f.mm.run_periodic(period);  // clears the accessed bits (shootdowns)
    const CoreId scanner = f.machine.scanner_core();
    EXPECT_LT(f.machine.clock(scanner), 2 * period);
    // Nothing was touched since: this pass only reads PTEs.
    f.mm.run_periodic(2 * period);
    EXPECT_EQ(f.mm.space(0).scans_completed(), 2u);
    return f.machine.clock(scanner) - 2 * period;
  };
  const Cycles small = quiet_scan_cycles(PageSizeClass::k4K);
  EXPECT_EQ(small, 4 * sim::CostModel::scan_pte_read /
                       sim::CostModel::scanner_threads);
  EXPECT_EQ(quiet_scan_cycles(PageSizeClass::k64K), 16 * small);
}

TEST(Scanner, OverrunSkipsTicksInsteadOfDiverging) {
  // With many referenced pages and a short period, the scan takes longer
  // than the period; the scanner must skip ticks (timers cannot re-enter).
  ScannerFixture f(PolicyKind::kLru, /*capacity=*/64, /*cores=*/4);
  for (CoreId c = 0; c < 4; ++c)
    for (Vpn v = 0; v < 64; ++v) f.touch(c, v);
  const Cycles period = f.machine.cost().scan_period;
  f.mm.run_periodic(100 * period);
  // Scans completed is bounded by wall progress, not by tick count.
  EXPECT_GT(f.mm.space(0).scans_completed(), 0u);
  EXPECT_LE(f.mm.space(0).scans_completed(), 100u);
}

TEST(Scanner, FeedsPolicyScanEvents) {
  ScannerFixture f(PolicyKind::kLru);
  f.touch(0, 1);
  const Cycles period = f.machine.cost().scan_period;
  // Two referenced scans promote the page (two-touch rule): after that the
  // policy's active list is non-empty.
  f.mm.run_periodic(period);
  f.touch(0, 1);
  f.mm.run_periodic(2 * period);
  f.touch(0, 1);
  f.mm.run_periodic(3 * period);
  EXPECT_GE(testing::stat_of(f.mm.space(0).policy(), "promotions"), 1u);
}

}  // namespace
}  // namespace cmcp::core
