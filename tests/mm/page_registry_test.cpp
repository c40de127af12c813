#include "mm/page_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace cmcp::mm {
namespace {

/// One space's resident set the way an AddressSpace keeps it: entries from
/// a coremap, indexed by unit in a registry.
struct Resident {
  explicit Resident(std::uint64_t frames, UnitIdx units = 8192)
      : alloc(frames, PageSizeClass::k4K, 1), reg(units) {}

  ResidentPage& insert(UnitIdx unit) {
    ResidentPage* page = alloc.allocate(0, unit);
    EXPECT_NE(page, nullptr);
    reg.insert(*page);
    return *page;
  }

  void evict(ResidentPage& page) {
    reg.erase(page);
    alloc.free(page);
  }

  FrameAllocator alloc;
  PageRegistry reg;
};

TEST(PageRegistry, InsertAndFind) {
  Resident r(4);
  ResidentPage& pg = r.insert(7);
  EXPECT_EQ(pg.unit, 7u);
  EXPECT_EQ(r.alloc.pfn_of(pg), 0u);
  EXPECT_EQ(r.reg.find(7), &pg);
  EXPECT_EQ(r.reg.find(8), nullptr);
  EXPECT_EQ(r.reg.size(), 1u);
}

TEST(PageRegistry, EraseRemoves) {
  Resident r(4);
  ResidentPage& pg = r.insert(7);
  r.reg.erase(pg);
  EXPECT_EQ(r.reg.find(7), nullptr);
  EXPECT_EQ(r.reg.size(), 0u);
}

TEST(PageRegistry, ReinsertAfterEraseResetsPolicyState) {
  // Re-allocating a freed frame hands its entry back with only the new
  // unit and owner set.
  Resident r(1);
  ResidentPage& pg = r.insert(7);
  pg.where = 3;
  pg.bucket = 9;
  pg.referenced = true;
  pg.ready_at = 5;
  pg.age_stamp = 11;
  pg.slot = 4;
  r.evict(pg);
  ResidentPage& fresh = r.insert(8);
  ASSERT_EQ(&fresh, &pg);
  EXPECT_EQ(fresh.unit, 8u);
  EXPECT_EQ(fresh.owner, 0u);
  EXPECT_EQ(fresh.state, FrameState::kResident);
  EXPECT_EQ(fresh.where, 0);
  EXPECT_EQ(fresh.bucket, 0u);
  EXPECT_FALSE(fresh.referenced);
  EXPECT_EQ(fresh.ready_at, 0u);
  EXPECT_EQ(fresh.age_stamp, 0u);
  EXPECT_EQ(fresh.slot, 0u);
  EXPECT_FALSE(fresh.main_node.linked());
  EXPECT_FALSE(fresh.aux_node.linked());
}

TEST(PageRegistry, PointerStabilityAcrossGrowth) {
  // The coremap builds its entries as frames are first handed out; built
  // entries never move while later ones are built.
  Resident r(5000);
  ResidentPage* first = &r.insert(0);
  for (UnitIdx u = 1; u < 5000; ++u) r.insert(u);
  EXPECT_EQ(r.reg.find(0), first);
  EXPECT_EQ(first->unit, 0u);
  EXPECT_EQ(r.alloc.frames().data(), first);
}

TEST(PageRegistry, ErasedPagesAreReusedLastInFirstOut) {
  Resident r(4);
  ResidentPage& a = r.insert(1);
  ResidentPage& b = r.insert(2);
  r.evict(a);
  r.evict(b);
  EXPECT_EQ(&r.insert(3), &b);
  EXPECT_EQ(&r.insert(4), &a);
}

TEST(PageRegistry, ChunkedPoolSurvivesChurnAcrossChunks) {
  // Thousands of pages, with every third page evicted and its frame
  // re-allocated to another unit on the way: earlier references must not
  // move, recycled entries must come back reset, and for_each must stay in
  // ascending unit order whatever the coremap order.
  constexpr UnitIdx kUnits = 3000;
  Resident r(kUnits, 2 * kUnits);
  std::vector<ResidentPage*> held(2 * kUnits, nullptr);
  for (UnitIdx u = 0; u < kUnits; ++u) {
    ResidentPage& pg = r.insert(u);
    pg.bucket = 7;
    pg.referenced = true;
    held[u] = &pg;
    if (u % 3 == 2) {
      const UnitIdx moved = u - 2;
      ResidentPage* const freed = held[moved];
      r.evict(*freed);
      held[moved] = nullptr;
      ResidentPage& recycled = r.insert(kUnits + moved);
      EXPECT_EQ(&recycled, freed);
      EXPECT_EQ(recycled.bucket, 0u);
      EXPECT_FALSE(recycled.referenced);
      held[kUnits + moved] = &recycled;
    }
  }
  EXPECT_EQ(r.reg.size(), kUnits);
  for (UnitIdx u = 0; u < held.size(); ++u) {
    if (held[u] == nullptr) continue;
    EXPECT_EQ(r.reg.find(u), held[u]);
    EXPECT_EQ(held[u]->unit, u);
  }
  std::vector<UnitIdx> seen;
  r.reg.for_each([&](const ResidentPage& pg) { seen.push_back(pg.unit); });
  ASSERT_EQ(seen.size(), kUnits);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(PageRegistry, ForEachVisitsAll) {
  Resident r(10);
  for (UnitIdx u = 0; u < 10; ++u) r.insert(u);
  std::set<UnitIdx> seen;
  r.reg.for_each([&](ResidentPage& pg) { seen.insert(pg.unit); });
  EXPECT_EQ(seen.size(), 10u);
}

TEST(PageRegistryDeath, DoubleInsertAborts) {
  Resident r(2);
  r.insert(7);
  EXPECT_DEATH(r.insert(7), "already resident");
}

TEST(PageRegistryDeath, EraseWhileOnPolicyListAborts) {
  Resident r(2);
  ResidentPage& pg = r.insert(7);
  ListNode anchor;  // simulate list membership
  pg.main_node.prev = &anchor;
  pg.main_node.next = &anchor;
  EXPECT_DEATH(r.reg.erase(pg), "policy list");
}

}  // namespace
}  // namespace cmcp::mm
