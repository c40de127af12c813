// Edge cases of the dense direct-indexed unit storage (docs/performance.md):
// the first and the last representable unit, queries past the sized range,
// re-mapping a unit after an eviction recycled its slot, and the capacity-1
// degenerate configurations. Hash maps got these right for free;
// index arithmetic has to prove it.
#include <gtest/gtest.h>

#include <functional>

#include "mm/frame_allocator.h"
#include "mm/page_registry.h"
#include "mm/pspt.h"
#include "mm/regular_page_table.h"
#include "sim/tlb.h"

namespace cmcp::mm {
namespace {

TEST(DensePspt, UnitZeroAndLastReservedUnit) {
  Pspt pt(4, 8);
  pt.map(0, 0);
  pt.map(3, 7);
  EXPECT_TRUE(pt.has_mapping(0, 0));
  EXPECT_TRUE(pt.has_mapping(3, 7));
  EXPECT_EQ(pt.core_map_count(0), 1u);
  EXPECT_EQ(pt.mapped_units(), 2u);
  // Units inside the table but never mapped are cleanly absent.
  EXPECT_FALSE(pt.any_mapping(3));
  EXPECT_EQ(pt.core_map_count(3), 0u);
}

TEST(DensePspt, QueriesBeyondReservedRangeAreAbsentNotFatal) {
  Pspt pt(2, 4);
  EXPECT_FALSE(pt.has_mapping(0, 1000));
  EXPECT_FALSE(pt.any_mapping(1000));
  EXPECT_EQ(pt.core_map_count(1000), 0u);
  EXPECT_EQ(pt.mapping_cores(1000).count(), 0u);
  unsigned reads = 0;
  EXPECT_FALSE(pt.test_accessed(1000, &reads));
  EXPECT_EQ(reads, 0u);
  EXPECT_FALSE(pt.clear_accessed(1000));
  EXPECT_FALSE(pt.test_dirty(1000));
}

TEST(DensePspt, RemapAfterUnmapTakesANewFrame) {
  Pspt pt(2, 8);
  pt.map(0, 5);
  pt.map(1, 5);
  pt.mark_dirty(0, 5);
  EXPECT_EQ(pt.unmap_all(5).targets.count(), 2u);
  // Eviction recycled the slot: a later fault may install a different
  // frame, and the old accessed/dirty state must not leak into it.
  pt.map(1, 5);
  EXPECT_EQ(pt.core_map_count(5), 1u);
  EXPECT_FALSE(pt.has_mapping(0, 5));
  EXPECT_FALSE(pt.test_dirty(5));
  unsigned reads = 0;
  EXPECT_FALSE(pt.test_accessed(5, &reads));
}

TEST(DenseRegularPageTable, UnitZeroLastUnitAndRemap) {
  RegularPageTable pt(2, 0, 8);
  pt.map(0, 0);
  pt.map(1, 7);
  EXPECT_TRUE(pt.any_mapping(0));
  EXPECT_TRUE(pt.any_mapping(7));
  EXPECT_FALSE(pt.any_mapping(800));  // past the table
  EXPECT_FALSE(pt.has_mapping(0, 800));
  EXPECT_EQ(pt.core_map_count(800), 0u);
  EXPECT_TRUE(pt.tlb_holders(800).none());
  EXPECT_FALSE(pt.test_accessed(800, nullptr));
  EXPECT_FALSE(pt.clear_accessed(800));
  pt.mark_dirty(0, 7);
  pt.unmap_all(7);
  pt.map(0, 7);
  EXPECT_TRUE(pt.any_mapping(7));
  EXPECT_FALSE(pt.test_dirty(7));
}

TEST(DensePageRegistry, UnitZeroLastUnitAndReinsertAfterErase) {
  FrameAllocator frames(4, PageSizeClass::k4K);
  PageRegistry registry(8);
  ResidentPage& first = *frames.allocate(0, 0);
  ResidentPage& last = *frames.allocate(0, 7);
  registry.insert(first);
  registry.insert(last);
  EXPECT_EQ(registry.find(0), &first);
  EXPECT_EQ(registry.find(7), &last);
  EXPECT_EQ(registry.find(3), nullptr);
  EXPECT_EQ(registry.find(8), nullptr);     // one past the index
  EXPECT_EQ(registry.find(9000), nullptr);  // far past it
  EXPECT_EQ(registry.size(), 2u);

  first.ready_at = 99;
  first.where = 2;
  first.bucket = 5;
  first.age_stamp = 11;
  first.slot = 4;
  first.referenced = true;
  registry.erase(first);
  frames.free(first);
  EXPECT_EQ(registry.find(0), nullptr);
  ResidentPage& again = *frames.allocate(0, 0);
  registry.insert(again);
  EXPECT_EQ(registry.find(0), &again);
  // The recycled frame comes back fully reset: only what allocate names.
  EXPECT_EQ(&again, &first);
  EXPECT_EQ(again.unit, 0u);
  EXPECT_EQ(frames.pfn_of(again), 0u);
  EXPECT_EQ(again.ready_at, 0u);
  EXPECT_FALSE(again.main_node.linked());
  EXPECT_FALSE(again.aux_node.linked());
  EXPECT_EQ(again.where, 0);
  EXPECT_EQ(again.bucket, 0u);
  EXPECT_EQ(again.age_stamp, 0u);
  EXPECT_EQ(again.slot, 0u);
  EXPECT_FALSE(again.referenced);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(DensePageRegistry, ForEachVisitsAscendingUnitOrder) {
  FrameAllocator frames(3, PageSizeClass::k4K);
  PageRegistry registry(10);
  // Insertion order deliberately scrambled relative to unit order.
  for (const UnitIdx unit : {9, 0, 4})
    registry.insert(*frames.allocate(0, unit));
  std::vector<UnitIdx> seen;
  registry.for_each([&](const ResidentPage& page) { seen.push_back(page.unit); });
  EXPECT_EQ(seen, (std::vector<UnitIdx>{0, 4, 9}));
}

TEST(DenseTlb, UnitZeroAndReservedBoundary) {
  sim::Tlb tlb(4);
  tlb.size_units(8);
  tlb.insert(0);
  tlb.insert(7);
  EXPECT_TRUE(tlb.lookup(0));
  EXPECT_TRUE(tlb.lookup(7));
  EXPECT_FALSE(tlb.lookup(8));     // one past the index
  EXPECT_FALSE(tlb.lookup(9000));  // far past it
  EXPECT_FALSE(tlb.invalidate(8));
  EXPECT_EQ(tlb.occupancy(), 2u);
}

TEST(DenseTlb, ReinsertAfterEvictionReusesTheSlotCleanly) {
  sim::Tlb tlb(1);
  tlb.size_units(8);
  tlb.insert(3);
  tlb.insert(4);  // evicts 3 (capacity-1: every insert evicts)
  EXPECT_FALSE(tlb.lookup(3));
  tlb.insert(3);  // re-map after evict
  EXPECT_TRUE(tlb.lookup(3));
  EXPECT_FALSE(tlb.lookup(4));
  EXPECT_EQ(tlb.occupancy(), 1u);
}

TEST(DenseFrameAllocator, CapacityOneRecycles) {
  FrameAllocator alloc(1, PageSizeClass::k4K);
  ResidentPage* page = alloc.allocate(0, 0);
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(alloc.full());
  EXPECT_EQ(alloc.allocate(0, 0), nullptr);  // exhausted, not UB
  alloc.free(*page);
  EXPECT_EQ(alloc.allocate(0, 0), page);
}

TEST(DenseStorageDeath, SentinelIndicesAbortInsteadOfWrapping) {
  // The all-ones sentinels must be refused before indexing: the per-asid
  // counts grow on demand and refuse kInvalidAsid, and every unit-indexed
  // structure, sized once, refuses any unit past its size.
  struct Row {
    const char* what;
    std::function<void()> call;
    const char* message;
  };
  const Row rows[] = {
      {"FrameAllocator::allocate",
       [] { FrameAllocator(2, PageSizeClass::k4K).allocate(kInvalidAsid, 0); },
       "kInvalidAsid"},
      {"PageRegistry::insert",
       [] {
         FrameAllocator frames(1, PageSizeClass::k4K);
         PageRegistry(8).insert(*frames.allocate(0, kInvalidUnit));
       },
       "kInvalidUnit"},
      {"PageRegistry::insert past the index",
       [] {
         FrameAllocator frames(1, PageSizeClass::k4K);
         PageRegistry(8).insert(*frames.allocate(0, 8));
       },
       "outside the index"},
      {"Pspt::map", [] { Pspt(2, 8).map(0, kInvalidUnit); }, "kInvalidUnit"},
      {"RegularPageTable::map",
       [] { RegularPageTable(2, 0, 8).map(0, kInvalidUnit); }, "kInvalidUnit"},
      {"Pspt::map past the table", [] { Pspt(2, 8).map(0, 8); },
       "outside the table"},
      {"RegularPageTable::map past the table",
       [] { RegularPageTable(2, 0, 8).map(0, 8); }, "outside the table"},
      {"Tlb::insert",
       [] {
         sim::Tlb tlb(4);
         tlb.size_units(8);
         tlb.insert(kInvalidUnit);
       },
       "kInvalidUnit"},
      {"Tlb::insert past the index",
       [] {
         sim::Tlb tlb(4);
         tlb.size_units(8);
         tlb.insert(8);
       },
       "outside the index"},
  };
  for (const Row& row : rows) EXPECT_DEATH(row.call(), row.message) << row.what;
}

}  // namespace
}  // namespace cmcp::mm
