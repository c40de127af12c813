#include "mm/frame_allocator.h"

#include <gtest/gtest.h>

#include <set>

namespace cmcp::mm {
namespace {

TEST(FrameAllocator, AllocatesUpToCapacity) {
  FrameAllocator alloc(3, PageSizeClass::k4K);
  std::set<Pfn> frames;
  for (int i = 0; i < 3; ++i) {
    const Pfn pfn = alloc.allocate(0, i);
    ASSERT_NE(pfn, kInvalidPfn);
    EXPECT_TRUE(frames.insert(pfn).second) << "duplicate frame";
  }
  EXPECT_EQ(alloc.allocate(0, 3), kInvalidPfn);
  EXPECT_TRUE(alloc.full());
  EXPECT_EQ(alloc.in_use(), 3u);
}

TEST(FrameAllocator, FreeMakesFrameReusable) {
  FrameAllocator alloc(1, PageSizeClass::k4K);
  const Pfn pfn = alloc.allocate(0, 0);
  EXPECT_EQ(alloc.allocate(0, 1), kInvalidPfn);
  alloc.free(pfn);
  EXPECT_EQ(alloc.in_use(), 0u);
  EXPECT_EQ(alloc.allocate(0, 1), pfn);
}

TEST(FrameAllocator, FramesAlignedFor64k) {
  // The Phi 64 kB format requires the first sub-entry to map a 64 kB
  // aligned physical frame (paper section 4).
  FrameAllocator alloc(8, PageSizeClass::k64K);
  for (int i = 0; i < 8; ++i) {
    const Pfn pfn = alloc.allocate(0, i);
    ASSERT_NE(pfn, kInvalidPfn);
    EXPECT_EQ(pfn % 16, 0u) << "64kB frame misaligned";
  }
}

TEST(FrameAllocator, FramesAlignedFor2M) {
  FrameAllocator alloc(4, PageSizeClass::k2M);
  for (int i = 0; i < 4; ++i) {
    const Pfn pfn = alloc.allocate(0, i);
    EXPECT_EQ(pfn % 512, 0u);
  }
}

TEST(FrameAllocator, ChurnNeverLosesFrames) {
  FrameAllocator alloc(16, PageSizeClass::k4K);
  std::vector<Pfn> held;
  std::uint64_t state = 99;
  for (int step = 0; step < 5000; ++step) {
    state = state * 6364136223846793005ULL + 1;
    if ((state >> 33) % 2 == 0 && !alloc.full()) {
      held.push_back(alloc.allocate(0, step));
    } else if (!held.empty()) {
      alloc.free(held.back());
      held.pop_back();
    }
    EXPECT_EQ(alloc.in_use(), held.size());
  }
}

TEST(FrameAllocator, QuarantineRetiresFrameForTheRun) {
  FrameAllocator alloc(2, PageSizeClass::k4K);
  const Pfn a = alloc.allocate(0, 0);
  const Pfn b = alloc.allocate(0, 1);
  alloc.quarantine(a);
  EXPECT_TRUE(alloc.is_quarantined(a));
  EXPECT_FALSE(alloc.is_quarantined(b));
  EXPECT_EQ(alloc.quarantined_count(), 1u);
  EXPECT_EQ(alloc.usable_capacity(), 1u);
  // Quarantined frames are neither free nor in use, and carry no owner.
  EXPECT_EQ(alloc.in_use(), 1u);
  EXPECT_EQ(alloc.free_count(), 0u);
  EXPECT_EQ(alloc.owner_of(a), kInvalidAsid);
  // The retired frame never comes back: the pool is exhausted at 1 frame.
  EXPECT_EQ(alloc.allocate(0, 2), kInvalidPfn);
  alloc.free(b);
  EXPECT_EQ(alloc.allocate(0, 2), b);
}

TEST(FrameAllocator, HandsOutAscendingThenLifo) {
  // The free list is threaded through the coremap's free entries; it must
  // serve frames in the order every golden result was recorded with.
  FrameAllocator alloc(4, PageSizeClass::k64K);
  EXPECT_EQ(alloc.allocate(0, 10), 0u);
  EXPECT_EQ(alloc.allocate(0, 11), 16u);
  EXPECT_EQ(alloc.allocate(0, 12), 32u);
  alloc.free(0);
  alloc.free(32);
  EXPECT_EQ(alloc.allocate(0, 13), 32u);
  EXPECT_EQ(alloc.allocate(0, 14), 0u);
  EXPECT_EQ(alloc.allocate(0, 15), 48u);
  EXPECT_EQ(alloc.allocate(0, 16), kInvalidPfn);
}

TEST(FrameAllocator, CoremapEntryNamesOwnerAndUnit) {
  FrameAllocator alloc(3, PageSizeClass::k4K);
  const Pfn a = alloc.allocate(2, 40);
  const Pfn b = alloc.allocate(0, 7);
  alloc.quarantine(b);
  ASSERT_NE(alloc.find(a), nullptr);
  EXPECT_EQ(alloc.find(a)->state, FrameState::kResident);
  EXPECT_EQ(alloc.find(a)->owner, 2u);
  EXPECT_EQ(alloc.find(a)->unit, 40u);
  EXPECT_EQ(alloc.find(b)->state, FrameState::kQuarantined);
  EXPECT_EQ(alloc.frames().size(), 3u);
  EXPECT_EQ(alloc.frames()[2].state, FrameState::kFree);
  EXPECT_EQ(alloc.find(3), nullptr);  // past capacity
  EXPECT_EQ(alloc.find(kInvalidPfn), nullptr);
}

TEST(FrameAllocatorDeath, DoubleFreeAborts) {
  FrameAllocator alloc(2, PageSizeClass::k4K);
  const Pfn pfn = alloc.allocate(0, 0);
  alloc.free(pfn);
  EXPECT_DEATH(alloc.free(pfn), "");
}

TEST(FrameAllocatorDeath, MisalignedFreeAborts) {
  FrameAllocator alloc(2, PageSizeClass::k64K);
  EXPECT_DEATH(alloc.free(3), "");
}

TEST(FrameAllocatorDeath, QuarantineOfFreeFrameAborts) {
  FrameAllocator alloc(2, PageSizeClass::k4K);
  const Pfn pfn = alloc.allocate(0, 0);
  alloc.free(pfn);
  EXPECT_DEATH(alloc.quarantine(pfn), "");
}

TEST(FrameAllocatorDeath, FreeOfQuarantinedFrameAborts) {
  FrameAllocator alloc(2, PageSizeClass::k4K);
  const Pfn pfn = alloc.allocate(0, 0);
  alloc.quarantine(pfn);
  EXPECT_DEATH(alloc.free(pfn), "");
}

}  // namespace
}  // namespace cmcp::mm
