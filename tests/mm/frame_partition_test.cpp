// FrameAllocator ownership tagging and FramePartition edges: equal-share
// rounding with tiny capacities and the victim choice — the corners where
// the partition either honors its targets or silently starves a tenant.
#include "mm/frame_partition.h"

#include <gtest/gtest.h>

#include <vector>

#include "mm/frame_allocator.h"

namespace cmcp::mm {
namespace {

/// Allocator of `capacity` 4K units (1 frame per unit).
FrameAllocator make_alloc(std::uint64_t capacity) {
  return FrameAllocator(capacity, PageSizeClass::k4K, 2);
}

std::vector<ResidentPage*> take(FrameAllocator& alloc, Asid owner,
                                std::uint64_t n) {
  std::vector<ResidentPage*> frames;
  for (std::uint64_t i = 0; i < n; ++i) {
    ResidentPage* frame = alloc.allocate(owner, i);
    EXPECT_NE(frame, nullptr);
    frames.push_back(frame);
  }
  return frames;
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
  for (const ResidentPage* f : a) EXPECT_EQ(f->owner, 0u);
  for (const ResidentPage* f : b) EXPECT_EQ(f->owner, 1u);

  alloc.free(*a[1]);
  EXPECT_EQ(alloc.in_use_by(0), 2u);
  EXPECT_EQ(alloc.frames()[1].state, FrameState::kFree);
  EXPECT_EQ(alloc.frames()[1].owner, kInvalidAsid);
}

// --- proportional share -----------------------------------------------------

TEST(FramePartition, ProportionalRoundingWithTinyCapacity) {
  // 5 frames across 3 tenants: 5 / 3 = 1 each, and the 5 % 3 = 2 remainder
  // frames go to the lowest asids -> 2/2/1.
  FramePartition part(PartitionKind::kProportionalShare, 5, 3);
  EXPECT_EQ(part.target_of(0), 2u);
  EXPECT_EQ(part.target_of(1), 2u);
  EXPECT_EQ(part.target_of(2), 1u);
  EXPECT_EQ(part.target_of(0) + part.target_of(1) + part.target_of(2), 5u);
}

TEST(FramePartition, ProportionalTargetsSumToCapacity) {
  // 7 frames across 2 tenants -> 3/3 + 1 remainder frame to asid 0.
  FramePartition part(PartitionKind::kProportionalShare, 7, 2);
  EXPECT_EQ(part.target_of(0), 4u);
  EXPECT_EQ(part.target_of(1), 3u);
}

TEST(FramePartition, ProportionalCapacityOneSingleFrame) {
  // Degenerate single-frame device: exactly one tenant may hold it.
  FramePartition part(PartitionKind::kProportionalShare, 1, 2);
  EXPECT_EQ(part.target_of(0) + part.target_of(1), 1u);
  EXPECT_EQ(part.target_of(0), 1u);  // remainder -> lowest asid
}

TEST(FramePartition, ProportionalEvictsNoisiestNeighbor) {
  // Targets at capacity 8 across 2 tenants -> 4/4.
  FramePartition part(PartitionKind::kProportionalShare, 8, 2);
  FrameAllocator alloc = make_alloc(8);
  take(alloc, 0, 2);  // 2 under target
  take(alloc, 1, 6);  // 2 over target: the noisy neighbor
  EXPECT_TRUE(alloc.full());
  EXPECT_EQ(part.choose_victim_space(0, alloc), 1u);
  // The noisy tenant itself keeps churning its own pages.
  EXPECT_EQ(part.choose_victim_space(1, alloc), 1u);
}

TEST(FramePartition, ProportionalVictimNeedsResidentFrames) {
  FramePartition part(PartitionKind::kProportionalShare, 4, 2);
  FrameAllocator alloc = make_alloc(4);
  take(alloc, 0, 4);  // tenant 1 holds nothing
  // Tenant 1 faults: the only evictable space is tenant 0.
  EXPECT_EQ(part.choose_victim_space(1, alloc), 0u);
  // Tenant 0 faults at full occupancy with no neighbor frames: self-evict.
  EXPECT_EQ(part.choose_victim_space(0, alloc), 0u);
}

// --- shrunk capacity (quarantine degradation path) --------------------------

TEST(FramePartition, SetCapacityReapportionsProportionalTargets) {
  FramePartition part(PartitionKind::kProportionalShare, 10, 2);
  EXPECT_EQ(part.target_of(0), 5u);
  EXPECT_EQ(part.target_of(1), 5u);
  part.set_capacity(7);  // three frames quarantined away
  EXPECT_EQ(part.capacity(), 7u);
  EXPECT_EQ(part.target_of(0), 4u);  // 7 / 2 = 3 + the remainder frame
  EXPECT_EQ(part.target_of(1), 3u);
}

TEST(FramePartition, NoneAlwaysSelfEvicts) {
  FramePartition part(PartitionKind::kNone, 4, 2);
  FrameAllocator alloc = make_alloc(4);
  take(alloc, 0, 1);
  take(alloc, 1, 3);
  EXPECT_TRUE(alloc.full());
  EXPECT_EQ(part.choose_victim_space(0, alloc), 0u);
  EXPECT_EQ(part.choose_victim_space(1, alloc), 1u);
}

}  // namespace
}  // namespace cmcp::mm
