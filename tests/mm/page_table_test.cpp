// Behavioural contract tests for both page table organizations, run as a
// parameterised suite where the semantics agree, plus the
// organization-specific differences the paper's whole argument is built on.
#include "mm/page_table.h"

#include <gtest/gtest.h>

namespace cmcp::mm {
namespace {

constexpr CoreId kCores = 8;
constexpr UnitIdx kUnits = 128;

constexpr PageTableKind kRegular = PageTableKind::kRegular;
constexpr PageTableKind kPspt = PageTableKind::kPspt;

class PageTableContractTest : public ::testing::TestWithParam<PageTableKind> {
 protected:
  PageTable pt_{GetParam(), 0, kCores, kUnits};
};

TEST_P(PageTableContractTest, UnmappedUnitHasNothing) {
  EXPECT_FALSE(pt_.any_mapping(7));
  EXPECT_FALSE(pt_.has_mapping(0, 7));
  EXPECT_EQ(pt_.core_map_count(7), 0u);
  EXPECT_TRUE(pt_.mapping_cores(7).none());
  EXPECT_EQ(pt_.mapped_units(), 0u);
}

TEST_P(PageTableContractTest, MapMakesUnitVisible) {
  pt_.map(2, 7);
  EXPECT_TRUE(pt_.any_mapping(7));
  EXPECT_TRUE(pt_.has_mapping(2, 7));
  EXPECT_EQ(pt_.mapped_units(), 1u);
}

TEST_P(PageTableContractTest, UnmapAllRemovesEverything) {
  pt_.map(1, 3);
  const CoreMask affected = pt_.unmap_all(3).targets;
  EXPECT_TRUE(affected.any());
  EXPECT_FALSE(pt_.any_mapping(3));
  EXPECT_FALSE(pt_.has_mapping(1, 3));
}

TEST_P(PageTableContractTest, AccessedBitLifecycle) {
  pt_.map(0, 9);
  unsigned reads = 0;
  EXPECT_FALSE(pt_.test_accessed(9, &reads));
  pt_.mark_accessed(0, 9);
  EXPECT_TRUE(pt_.test_accessed(9, nullptr));
  EXPECT_TRUE(pt_.clear_accessed(9));
  EXPECT_FALSE(pt_.test_accessed(9, nullptr));
  EXPECT_FALSE(pt_.clear_accessed(9));  // second clear finds nothing
}

TEST_P(PageTableContractTest, DirtyBitLifecycle) {
  // A unit starts clean, a write makes it dirty, and only eviction
  // (unmap_all) cleans it: a remapped unit starts clean again.
  pt_.map(0, 4);
  EXPECT_FALSE(pt_.test_dirty(4));
  pt_.mark_dirty(0, 4);
  EXPECT_TRUE(pt_.test_dirty(4));
  pt_.unmap_all(4);
  EXPECT_FALSE(pt_.test_dirty(4));
  pt_.map(0, 4);
  EXPECT_FALSE(pt_.test_dirty(4));
}

TEST_P(PageTableContractTest, ManyUnitsIndependent) {
  for (UnitIdx u = 0; u < 100; ++u) pt_.map(u % kCores, u);
  EXPECT_EQ(pt_.mapped_units(), 100u);
  for (UnitIdx u = 0; u < 100; ++u)
    EXPECT_TRUE(pt_.has_mapping(u % kCores, u));
  pt_.unmap_all(50);
  EXPECT_EQ(pt_.mapped_units(), 99u);
  EXPECT_TRUE(pt_.any_mapping(49));
  EXPECT_TRUE(pt_.any_mapping(51));
}

TEST_P(PageTableContractTest, UnmapOfUnmappedAborts) {
  EXPECT_DEATH(pt_.unmap_all(123), "unmap");
}

INSTANTIATE_TEST_SUITE_P(BothKinds, PageTableContractTest,
                         ::testing::Values(PageTableKind::kRegular,
                                           PageTableKind::kPspt),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// --- organization-specific semantics ---------------------------------------

TEST(RegularPageTable, MappingVisibleToEveryCoreAtOnce) {
  PageTable pt(kRegular, 0, kCores, kUnits);
  pt.map(0, 5);
  for (CoreId c = 0; c < kCores; ++c) EXPECT_TRUE(pt.has_mapping(c, 5));
}

TEST(RegularPageTable, ShootdownMustTargetAllCores) {
  // Centralized book-keeping cannot tell whose TLB holds the translation.
  PageTable pt(kRegular, 0, kCores, kUnits);
  pt.map(3, 5);
  EXPECT_EQ(pt.mapping_cores(5), CoreMask::first_n(kCores));
  EXPECT_EQ(pt.unmap_all(5).targets, CoreMask::first_n(kCores));
}

TEST(RegularPageTable, ShootdownTargetsOnlyTheSpacesCoreBlock) {
  // A tenant on cores [4, 8) of the machine: its units are reachable only
  // from those cores, so they are the targets and the pessimistic count.
  PageTable pt(kRegular, 4, 4, kUnits);
  pt.map(5, 2);
  CoreMask block;
  for (CoreId c = 4; c < 8; ++c) block.set(c);
  EXPECT_EQ(pt.mapping_cores(2), block);
  EXPECT_EQ(pt.core_map_count(2), 4u);
  EXPECT_EQ(pt.unmap_all(2).targets, block);
}

TEST(RegularPageTable, MarkAccessedRecordsTheFillAndUnmapClearsIt) {
  // Every TLB fill goes through mark_accessed, so its cores are the
  // only ones whose TLB may hold the unit; unmap_all hands them back and
  // starts the next mapping with none. Core 70 puts the bit in a
  // second mask word.
  PageTable pt(kRegular, 0, 100, kUnits);
  pt.map(0, 5);
  EXPECT_TRUE(pt.tlb_holders(5).none());
  pt.mark_accessed(3, 5);
  pt.mark_accessed(70, 5);
  pt.mark_accessed(3, 5);
  pt.map(1, 6);
  pt.mark_accessed(9, 6);
  CoreMask expected;
  expected.set(3);
  expected.set(70);
  EXPECT_EQ(pt.tlb_holders(5), expected);
  const ShootdownSet set = pt.unmap_all(5);
  EXPECT_EQ(set.targets, CoreMask::first_n(100));
  EXPECT_EQ(set.holders, expected);
  EXPECT_TRUE(pt.tlb_holders(5).none());
  pt.map(0, 5);
  EXPECT_TRUE(pt.tlb_holders(5).none());
  // The neighbouring unit's fill is untouched.
  CoreMask nine;
  nine.set(9);
  EXPECT_EQ(pt.tlb_holders(6), nine);
}

TEST(RegularPageTableDeath, MarkAccessedFromAnotherSpacesCoreAborts) {
  PageTable pt(kRegular, 4, 4, kUnits);
  pt.map(4, 1);
  EXPECT_DEATH(pt.mark_accessed(3, 1), "");
  EXPECT_DEATH(pt.mark_accessed(8, 1), "");
}

TEST(RegularPageTable, CoreMapCountIsPessimistic) {
  // "such information cannot be obtained from regular page tables" — the
  // model reports the upper bound.
  PageTable pt(kRegular, 0, kCores, kUnits);
  pt.map(0, 5);
  EXPECT_EQ(pt.core_map_count(5), kCores);
}

TEST(Pspt, MappingPrivatePerCore) {
  PageTable pt(kPspt, 0, kCores, kUnits);
  pt.map(2, 5);
  EXPECT_TRUE(pt.has_mapping(2, 5));
  for (CoreId c = 0; c < kCores; ++c) {
    if (c != 2) {
      EXPECT_FALSE(pt.has_mapping(c, 5)) << "core " << c;
    }
  }
}

TEST(Pspt, CoreMapCountIsExact) {
  PageTable pt(kPspt, 0, kCores, kUnits);
  pt.map(0, 5);
  EXPECT_EQ(pt.core_map_count(5), 1u);
  pt.map(3, 5);
  EXPECT_EQ(pt.core_map_count(5), 2u);
  pt.map(7, 5);
  EXPECT_EQ(pt.core_map_count(5), 3u);
}

TEST(Pspt, ShootdownTargetsOnlyMappingCores) {
  // The red dashed lines of Fig. 3: invalidation hits Core0 and Core1 only.
  PageTable pt(kPspt, 0, kCores, kUnits);
  pt.map(0, 5);
  pt.map(1, 5);
  CoreMask expected;
  expected.set(0);
  expected.set(1);
  EXPECT_EQ(pt.mapping_cores(5), expected);
  EXPECT_EQ(pt.tlb_holders(5), expected);
  const ShootdownSet set = pt.unmap_all(5);
  EXPECT_EQ(set.targets, expected);
  EXPECT_EQ(set.holders, expected);
}

TEST(Pspt, DoubleMapBySameCoreAborts) {
  PageTable pt(kPspt, 0, kCores, kUnits);
  pt.map(0, 5);
  EXPECT_DEATH(pt.map(0, 5), "already maps");
}

TEST(Pspt, AccessedBitAggregatesOverMappingCores) {
  PageTable pt(kPspt, 0, kCores, kUnits);
  pt.map(0, 5);
  pt.map(1, 5);
  pt.mark_accessed(1, 5);
  unsigned reads = 0;
  EXPECT_TRUE(pt.test_accessed(5, &reads));
  EXPECT_EQ(reads, 2u);  // scanner must consult both cores' PTEs
  EXPECT_TRUE(pt.clear_accessed(5));
  // Cleared on every core.
  EXPECT_FALSE(pt.test_accessed(5, nullptr));
}

TEST(Pspt, PerCoreMappedUnits) {
  PageTable pt(kPspt, 0, kCores, kUnits);
  pt.map(0, 1);
  pt.map(0, 2);
  pt.map(1, 2);
  EXPECT_EQ(pt.mapped_units_of_core(0), 2u);
  EXPECT_EQ(pt.mapped_units_of_core(1), 1u);
  EXPECT_EQ(pt.mapped_units(), 2u);
}

TEST(Pspt, CoreThatNeverMapsOwnsNoTable) {
  // The paper's 56-core machine with one tenant's space touched by two of
  // its cores: the other 54 map nothing, and every query from them answers
  // "no PTE" — also for a unit past the table.
  constexpr CoreId kMachineCores = 56;
  PageTable pt(kPspt, 0, kMachineCores, 64);
  pt.map(3, 5);
  pt.map(40, 5);
  pt.map(40, 9);
  pt.mark_accessed(3, 5);
  pt.mark_dirty(40, 9);
  EXPECT_EQ(pt.mapped_units_of_core(3), 1u);
  EXPECT_EQ(pt.mapped_units_of_core(40), 2u);
  for (CoreId c = 0; c < kMachineCores; ++c) {
    if (c == 3 || c == 40) continue;
    EXPECT_FALSE(pt.has_mapping(c, 5)) << "core " << c;
    EXPECT_FALSE(pt.has_mapping(c, 9)) << "core " << c;
    EXPECT_FALSE(pt.has_mapping(c, 1000)) << "core " << c;
    EXPECT_EQ(pt.mapped_units_of_core(c), 0u) << "core " << c;
  }
  unsigned reads = 0;
  EXPECT_TRUE(pt.test_accessed(5, &reads));
  EXPECT_EQ(reads, 2u);
  EXPECT_TRUE(pt.test_dirty(9));
  EXPECT_TRUE(pt.clear_accessed(5));
  CoreMask both;
  both.set(3);
  both.set(40);
  EXPECT_EQ(pt.unmap_all(5).targets, both);
  EXPECT_EQ(pt.mapped_units_of_core(3), 0u);
  EXPECT_EQ(pt.mapped_units_of_core(40), 1u);

  // The last unit of the table behaves like any other.
  pt.map(3, 63);
  pt.map(40, 63);
  EXPECT_EQ(pt.core_map_count(63), 2u);
  EXPECT_FALSE(pt.has_mapping(4, 63));
  EXPECT_EQ(pt.mapped_units_of_core(4), 0u);
  pt.map(7, 63);
  EXPECT_EQ(pt.core_map_count(63), 3u);
  EXPECT_TRUE(pt.has_mapping(7, 63));
}

TEST(PsptDeath, MarkFromACoreThatDoesNotMapAborts) {
  // Each core's walk reads only its own private PTE, so a core that does
  // not map the unit cannot set its bits (as RegularPageTableDeath's
  // MarkAccessedFromAnotherSpacesCoreAborts holds for a foreign core).
  PageTable pt(kPspt, 0, kCores, kUnits);
  pt.map(2, 5);
  EXPECT_DEATH(pt.mark_accessed(3, 5), "");
  EXPECT_DEATH(pt.mark_dirty(3, 5), "");
  EXPECT_DEATH(pt.mark_accessed(2, 6), "");
  EXPECT_DEATH(pt.mark_dirty(2, kUnits), "");
}

}  // namespace
}  // namespace cmcp::mm
