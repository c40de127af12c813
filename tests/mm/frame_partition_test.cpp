// FrameAllocator ownership tagging and FramePartition QoS edges: reserve
// floor exhaustion and proportional-share rounding with tiny capacities —
// the corners where the partition either honors its guarantees or silently
// starves a tenant.
#include "mm/frame_partition.h"

#include <gtest/gtest.h>

#include <vector>

#include "mm/frame_allocator.h"

namespace cmcp::mm {
namespace {

/// Allocator of `capacity` 4K units (1 frame per unit).
FrameAllocator make_alloc(std::uint64_t capacity) {
  return FrameAllocator(capacity, PageSizeClass::k4K);
}

std::vector<Pfn> take(FrameAllocator& alloc, Asid owner, std::uint64_t n) {
  std::vector<Pfn> pfns;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Pfn pfn = alloc.allocate(owner, i);
    EXPECT_NE(pfn, kInvalidPfn);
    pfns.push_back(pfn);
  }
  return pfns;
}

// --- FrameAllocator ownership ----------------------------------------------

TEST(FrameAllocatorOwnership, TracksPerTenantCountsAndOwners) {
  FrameAllocator alloc = make_alloc(8);
  const auto a = take(alloc, 0, 3);
  const auto b = take(alloc, 1, 2);
  EXPECT_EQ(alloc.in_use_by(0), 3u);
  EXPECT_EQ(alloc.in_use_by(1), 2u);
  EXPECT_EQ(alloc.in_use(), 5u);
  EXPECT_EQ(alloc.free_count(), 3u);
  for (Pfn pfn : a) EXPECT_EQ(alloc.owner_of(pfn), 0u);
  for (Pfn pfn : b) EXPECT_EQ(alloc.owner_of(pfn), 1u);

  alloc.free(a[1]);
  EXPECT_EQ(alloc.in_use_by(0), 2u);
  EXPECT_EQ(alloc.owner_of(a[1]), kInvalidAsid);
}

// --- static reserve ---------------------------------------------------------

TEST(FramePartition, StaticReserveEarmarksFloorsOfOthers) {
  // Capacity 10, floors 4 + 4, 2 unreserved.
  FramePartition part(PartitionKind::kStaticReserve, 10,
                      {{.reserve_units = 4}, {.reserve_units = 4}});
  FrameAllocator alloc = make_alloc(10);

  // Tenant 0 may fill its floor plus the slack...
  take(alloc, 0, 5);
  EXPECT_TRUE(part.may_allocate(0, alloc));  // free 5 > earmarked 4
  take(alloc, 0, 1);
  // ...but once the free pool equals tenant 1's unmet floor, tenant 0 is cut
  // off even though frames are free.
  EXPECT_EQ(alloc.free_count(), 4u);
  EXPECT_FALSE(part.may_allocate(0, alloc));
  // Tenant 1 is under its floor: always admitted.
  EXPECT_TRUE(part.may_allocate(1, alloc));
  take(alloc, 1, 4);
  EXPECT_TRUE(alloc.full());
  EXPECT_FALSE(part.may_allocate(1, alloc));

  // Exhausted: tenant 1 sits exactly at floor, tenant 0 is 2 over — the
  // victim must be tenant 0 no matter who faults.
  EXPECT_EQ(part.choose_victim_space(0, alloc), 0u);
  EXPECT_EQ(part.choose_victim_space(1, alloc), 0u);
}

TEST(FramePartition, StaticReserveFloorsClampedFromHighestAsid) {
  // Floors request 6 + 6 = 12 > capacity 8: the excess trims asid 1 first.
  FramePartition part(PartitionKind::kStaticReserve, 8,
                      {{.reserve_units = 6}, {.reserve_units = 6}});
  EXPECT_EQ(part.reserve_of(0), 6u);
  EXPECT_EQ(part.reserve_of(1), 2u);
}

TEST(FramePartition, StaticReserveVictimIsLargestOverage) {
  FramePartition part(PartitionKind::kStaticReserve, 12,
                      {{.reserve_units = 2},
                       {.reserve_units = 2},
                       {.reserve_units = 2}});
  FrameAllocator alloc = make_alloc(12);
  take(alloc, 0, 2);  // at floor
  take(alloc, 1, 5);  // 3 over
  take(alloc, 2, 5);  // 3 over (tie -> lowest asid wins)
  // Tenant 0 faults while at its floor: reclaim from the biggest overager.
  EXPECT_EQ(part.choose_victim_space(0, alloc), 1u);
}

// --- proportional share -----------------------------------------------------

TEST(FramePartition, ProportionalRoundingWithTinyCapacity) {
  // 5 frames across weights 1:1:1 — largest-remainder gives 2/2/1 with the
  // remainder frames going to the lowest asids (all remainders tie).
  FramePartition part(PartitionKind::kProportionalShare, 5,
                      {{.weight = 1}, {.weight = 1}, {.weight = 1}});
  EXPECT_EQ(part.target_of(0), 2u);
  EXPECT_EQ(part.target_of(1), 2u);
  EXPECT_EQ(part.target_of(2), 1u);
  EXPECT_EQ(part.target_of(0) + part.target_of(1) + part.target_of(2), 5u);
}

TEST(FramePartition, ProportionalTargetsSumToCapacity) {
  // 7 frames at weights 3:2 -> exact shares 4.2/2.8 -> 4/2 + 1 remainder
  // frame to the larger fraction (asid 1, 0.8 > 0.2).
  FramePartition part(PartitionKind::kProportionalShare, 7,
                      {{.weight = 3}, {.weight = 2}});
  EXPECT_EQ(part.target_of(0), 4u);
  EXPECT_EQ(part.target_of(1), 3u);
}

TEST(FramePartition, ProportionalZeroWeightTenantGetsNothing) {
  // A zero-weight tenant is best-effort: no target, no remainder frames.
  FramePartition part(PartitionKind::kProportionalShare, 3,
                      {{.weight = 0}, {.weight = 1}});
  EXPECT_EQ(part.target_of(0), 0u);
  EXPECT_EQ(part.target_of(1), 3u);
}

TEST(FramePartition, ProportionalCapacityOneSingleFrame) {
  // Degenerate single-frame device: exactly one tenant may hold it.
  FramePartition part(PartitionKind::kProportionalShare, 1,
                      {{.weight = 1}, {.weight = 1}});
  EXPECT_EQ(part.target_of(0) + part.target_of(1), 1u);
  EXPECT_EQ(part.target_of(0), 1u);  // tie -> lowest asid
}

TEST(FramePartition, ProportionalEvictsNoisiestNeighbor) {
  // Targets at capacity 9, weights 2:1 -> 6/3.
  FramePartition part(PartitionKind::kProportionalShare, 9,
                      {{.weight = 2}, {.weight = 1}});
  FrameAllocator alloc = make_alloc(9);
  take(alloc, 0, 3);  // 3 under target
  take(alloc, 1, 6);  // 3 over target: the noisy neighbor
  EXPECT_TRUE(alloc.full());
  EXPECT_EQ(part.choose_victim_space(0, alloc), 1u);
  // The noisy tenant itself keeps churning its own pages.
  EXPECT_EQ(part.choose_victim_space(1, alloc), 1u);
}

TEST(FramePartition, ProportionalVictimNeedsResidentFrames) {
  FramePartition part(PartitionKind::kProportionalShare, 4,
                      {{.weight = 1}, {.weight = 1}});
  FrameAllocator alloc = make_alloc(4);
  take(alloc, 0, 4);  // tenant 1 holds nothing
  // Tenant 1 faults: the only evictable space is tenant 0.
  EXPECT_EQ(part.choose_victim_space(1, alloc), 0u);
  // Tenant 0 faults at full occupancy with no neighbor frames: self-evict.
  EXPECT_EQ(part.choose_victim_space(0, alloc), 0u);
}

// --- shrunk capacity (quarantine degradation path) --------------------------

TEST(FramePartition, SetCapacityReclampsFloorsFromHighestAsid) {
  // Quarantine shrinks usable capacity below the sum of the floors: the
  // re-clamp trims the highest asid first, never underflows, and repeated
  // shrinks compose.
  FramePartition part(PartitionKind::kStaticReserve, 10,
                      {{.reserve_units = 4}, {.reserve_units = 4}});
  part.set_capacity(6);
  EXPECT_EQ(part.reserve_of(0), 4u);
  EXPECT_EQ(part.reserve_of(1), 2u);
  part.set_capacity(3);  // below even tenant 0's floor
  EXPECT_EQ(part.reserve_of(0), 3u);
  EXPECT_EQ(part.reserve_of(1), 0u);
  part.set_capacity(1);
  EXPECT_EQ(part.reserve_of(0), 1u);
  EXPECT_EQ(part.reserve_of(1), 0u);
}

TEST(FramePartition, SetCapacityReapportionsProportionalTargets) {
  FramePartition part(PartitionKind::kProportionalShare, 9,
                      {{.weight = 2}, {.weight = 1}});
  EXPECT_EQ(part.target_of(0), 6u);
  EXPECT_EQ(part.target_of(1), 3u);
  part.set_capacity(7);  // two frames quarantined away
  EXPECT_EQ(part.target_of(0) + part.target_of(1), 7u);
  EXPECT_EQ(part.target_of(0), 5u);  // 14/3 = 4.67 -> 4 + remainder frame
  EXPECT_EQ(part.target_of(1), 2u);
}

TEST(FramePartition, ShrunkStaticReserveStillAdmitsAndEvictsSanely) {
  // After the shrink both tenants' floors fit the new capacity exactly; the
  // tenant over its (trimmed) floor is the victim, and nobody is admitted
  // past a full allocator.
  FramePartition part(PartitionKind::kStaticReserve, 8,
                      {{.reserve_units = 4}, {.reserve_units = 4}});
  FrameAllocator alloc = make_alloc(8);
  const auto a = take(alloc, 0, 4);
  const auto b = take(alloc, 1, 4);
  alloc.quarantine(b[3]);  // tenant 1 drops to 3 frames, capacity to 7
  part.set_capacity(alloc.usable_capacity());
  EXPECT_EQ(part.reserve_of(0), 4u);
  EXPECT_EQ(part.reserve_of(1), 3u);
  // Tenant 1 sits under its original floor but AT the trimmed one; with no
  // free frames nobody may allocate and the over-floor logic stays sane.
  EXPECT_FALSE(part.may_allocate(0, alloc));
  EXPECT_FALSE(part.may_allocate(1, alloc));
  alloc.free(a[0]);
  // Tenant 0 is now under its floor: the lone free frame is earmarked for
  // it, so tenant 1 stays cut off while tenant 0 is admitted.
  EXPECT_TRUE(part.may_allocate(0, alloc));
  EXPECT_FALSE(part.may_allocate(1, alloc));
  (void)part.choose_victim_space(1, alloc);  // must not crash or underflow
}

TEST(FramePartition, NoneAlwaysSelfEvicts) {
  FramePartition part(PartitionKind::kNone, 4, {{}, {}});
  FrameAllocator alloc = make_alloc(4);
  take(alloc, 0, 1);
  EXPECT_TRUE(part.may_allocate(1, alloc));  // work-conserving while free
  take(alloc, 1, 3);
  EXPECT_FALSE(part.may_allocate(0, alloc));  // full
  EXPECT_EQ(part.choose_victim_space(0, alloc), 0u);
  EXPECT_EQ(part.choose_victim_space(1, alloc), 1u);
}

}  // namespace
}  // namespace cmcp::mm
