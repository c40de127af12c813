#include "mm/frame_allocator.h"

#include <gtest/gtest.h>

#include <set>

namespace cmcp::mm {
namespace {

TEST(FrameAllocator, AllocatesUpToCapacity) {
  FrameAllocator alloc(3, PageSizeClass::k4K);
  std::set<Pfn> frames;
  for (int i = 0; i < 3; ++i) {
    const ResidentPage* page = alloc.allocate(0, i);
    ASSERT_NE(page, nullptr);
    EXPECT_TRUE(frames.insert(alloc.pfn_of(*page)).second) << "duplicate frame";
  }
  EXPECT_EQ(alloc.allocate(0, 3), nullptr);
  EXPECT_TRUE(alloc.full());
  EXPECT_EQ(alloc.in_use(), 3u);
}

TEST(FrameAllocator, FreeMakesFrameReusable) {
  FrameAllocator alloc(1, PageSizeClass::k4K);
  ResidentPage* page = alloc.allocate(0, 0);
  EXPECT_EQ(alloc.allocate(0, 1), nullptr);
  alloc.free(*page);
  EXPECT_EQ(alloc.in_use(), 0u);
  EXPECT_EQ(alloc.allocate(0, 1), page);
}

TEST(FrameAllocator, FramesAlignedFor64k) {
  // The Phi 64 kB format requires the first sub-entry to map a 64 kB
  // aligned physical frame (paper section 4).
  FrameAllocator alloc(8, PageSizeClass::k64K);
  for (int i = 0; i < 8; ++i) {
    const ResidentPage* page = alloc.allocate(0, i);
    ASSERT_NE(page, nullptr);
    EXPECT_EQ(alloc.pfn_of(*page) % 16, 0u) << "64kB frame misaligned";
  }
}

TEST(FrameAllocator, FramesAlignedFor2M) {
  FrameAllocator alloc(4, PageSizeClass::k2M);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(alloc.pfn_of(*alloc.allocate(0, i)) % 512, 0u);
}

TEST(FrameAllocator, ChurnNeverLosesFrames) {
  FrameAllocator alloc(16, PageSizeClass::k4K);
  std::vector<ResidentPage*> held;
  std::uint64_t state = 99;
  for (int step = 0; step < 5000; ++step) {
    state = state * 6364136223846793005ULL + 1;
    if ((state >> 33) % 2 == 0 && !alloc.full()) {
      held.push_back(alloc.allocate(0, step));
    } else if (!held.empty()) {
      alloc.free(*held.back());
      held.pop_back();
    }
    EXPECT_EQ(alloc.in_use(), held.size());
    EXPECT_EQ(alloc.free_count(), 16 - held.size());
  }
}

TEST(FrameAllocator, QuarantineRetiresFrameForTheRun) {
  FrameAllocator alloc(2, PageSizeClass::k4K);
  ResidentPage* a = alloc.allocate(0, 0);
  ResidentPage* b = alloc.allocate(0, 1);
  alloc.quarantine(*a);
  EXPECT_EQ(a->state, FrameState::kQuarantined);
  EXPECT_EQ(b->state, FrameState::kResident);
  EXPECT_EQ(alloc.quarantined_count(), 1u);
  EXPECT_EQ(alloc.usable_capacity(), 1u);
  // Quarantined frames are neither free nor in use, and carry no owner.
  EXPECT_EQ(alloc.in_use(), 1u);
  EXPECT_EQ(alloc.free_count(), 0u);
  EXPECT_EQ(a->owner, kInvalidAsid);
  EXPECT_EQ(a->unit, kInvalidUnit);
  // The retired frame never comes back: the pool is exhausted at 1 frame.
  EXPECT_EQ(alloc.allocate(0, 2), nullptr);
  alloc.free(*b);
  EXPECT_EQ(alloc.allocate(0, 2), b);
}

TEST(FrameAllocator, HandsOutAscendingThenLifo) {
  // A bump cursor over the never-used frames, then the free list threaded
  // through the coremap's free entries: frames must come in the order every
  // golden result was recorded with.
  FrameAllocator alloc(4, PageSizeClass::k64K);
  const auto take = [&](UnitIdx unit) {
    const ResidentPage* page = alloc.allocate(0, unit);
    return page == nullptr ? kInvalidPfn : alloc.pfn_of(*page);
  };
  ResidentPage* first = alloc.allocate(0, 10);
  EXPECT_EQ(take(11), 16u);
  ResidentPage* third = alloc.allocate(0, 12);
  EXPECT_EQ(alloc.pfn_of(*first), 0u);
  EXPECT_EQ(alloc.pfn_of(*third), 32u);
  alloc.free(*first);
  alloc.free(*third);
  EXPECT_EQ(take(13), 32u);
  EXPECT_EQ(take(14), 0u);
  EXPECT_EQ(take(15), 48u);
  EXPECT_EQ(take(16), kInvalidPfn);
}

TEST(FrameAllocator, CoremapEntryNamesOwnerAndUnit) {
  FrameAllocator alloc(3, PageSizeClass::k4K);
  const ResidentPage* a = alloc.allocate(2, 40);
  ResidentPage* b = alloc.allocate(0, 7);
  alloc.quarantine(*b);
  // Only the frames handed out so far are built; the rest count as free.
  ASSERT_EQ(alloc.frames().size(), 2u);
  EXPECT_EQ(&alloc.frames()[0], a);
  EXPECT_EQ(alloc.frames()[0].state, FrameState::kResident);
  EXPECT_EQ(alloc.frames()[0].owner, 2u);
  EXPECT_EQ(alloc.frames()[0].unit, 40u);
  EXPECT_EQ(alloc.frames()[1].state, FrameState::kQuarantined);
  EXPECT_EQ(alloc.capacity(), 3u);
  EXPECT_EQ(alloc.free_count(), 1u);
  EXPECT_EQ(alloc.pfn_of(*b), 1u);
}

TEST(FrameAllocatorDeath, DoubleFreeAborts) {
  FrameAllocator alloc(2, PageSizeClass::k4K);
  ResidentPage* page = alloc.allocate(0, 0);
  alloc.free(*page);
  EXPECT_DEATH(alloc.free(*page), "double free");
}

TEST(FrameAllocatorDeath, MisalignedFreeAborts) {
  // An entry that is no slot of this coremap names no frame: a stray
  // copy, or an entry of another allocator's coremap.
  FrameAllocator alloc(2, PageSizeClass::k64K);
  FrameAllocator other(2, PageSizeClass::k64K);
  ResidentPage stray = *alloc.allocate(0, 0);
  EXPECT_DEATH(alloc.free(stray), "not in this coremap");
  EXPECT_DEATH(alloc.free(*other.allocate(0, 0)), "not in this coremap");
}

TEST(FrameAllocatorDeath, QuarantineOfFreeFrameAborts) {
  FrameAllocator alloc(2, PageSizeClass::k4K);
  ResidentPage* page = alloc.allocate(0, 0);
  alloc.free(*page);
  EXPECT_DEATH(alloc.quarantine(*page), "not allocated");
}

TEST(FrameAllocatorDeath, FreeOfQuarantinedFrameAborts) {
  FrameAllocator alloc(2, PageSizeClass::k4K);
  ResidentPage* page = alloc.allocate(0, 0);
  alloc.quarantine(*page);
  EXPECT_DEATH(alloc.free(*page), "double free");
}

}  // namespace
}  // namespace cmcp::mm
