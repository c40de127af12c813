#include "mm/page_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace cmcp::mm {
namespace {

TEST(PageRegistry, InsertAndFind) {
  PageRegistry reg;
  ResidentPage& pg = reg.insert(7, 100);
  EXPECT_EQ(pg.unit, 7u);
  EXPECT_EQ(pg.pfn, 100u);
  EXPECT_EQ(reg.find(7), &pg);
  EXPECT_EQ(reg.find(8), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(PageRegistry, EraseRemoves) {
  PageRegistry reg;
  ResidentPage& pg = reg.insert(7, 100);
  reg.erase(pg);
  EXPECT_EQ(reg.find(7), nullptr);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(PageRegistry, ReinsertAfterEraseResetsPolicyState) {
  PageRegistry reg;
  ResidentPage& pg = reg.insert(7, 100);
  pg.where = 3;
  pg.bucket = 9;
  pg.referenced = true;
  pg.ready_at = 5;
  reg.erase(pg);
  ResidentPage& fresh = reg.insert(7, 200);
  EXPECT_EQ(fresh.where, 0);
  EXPECT_EQ(fresh.bucket, 0u);
  EXPECT_FALSE(fresh.referenced);
  EXPECT_EQ(fresh.ready_at, 0u);
  EXPECT_EQ(fresh.pfn, 200u);
}

TEST(PageRegistry, PointerStabilityAcrossGrowth) {
  PageRegistry reg;
  ResidentPage* first = &reg.insert(0, 0);
  for (UnitIdx u = 1; u < 5000; ++u) reg.insert(u, u);
  EXPECT_EQ(reg.find(0), first);
  EXPECT_EQ(first->unit, 0u);
}

TEST(PageRegistry, ErasedPagesAreReusedLastInFirstOut) {
  PageRegistry reg;
  ResidentPage& a = reg.insert(1, 0);
  ResidentPage& b = reg.insert(2, 1);
  reg.erase(a);
  reg.erase(b);
  EXPECT_EQ(&reg.insert(3, 2), &b);
  EXPECT_EQ(&reg.insert(4, 3), &a);
}

TEST(PageRegistry, ChunkedPoolSurvivesChurnAcrossChunks) {
  // Well past two chunks' worth of pages, with every third page erased and
  // re-inserted elsewhere on the way: earlier references must not move,
  // recycled pages must come back reset, and for_each must stay in
  // ascending unit order whatever the pool order.
  constexpr UnitIdx kUnits = 3000;
  PageRegistry reg;
  std::vector<ResidentPage*> held(2 * kUnits, nullptr);
  for (UnitIdx u = 0; u < kUnits; ++u) {
    ResidentPage& pg = reg.insert(u, u);
    pg.bucket = 7;
    pg.referenced = true;
    held[u] = &pg;
    if (u % 3 == 2) {
      const UnitIdx moved = u - 2;
      reg.erase(*held[moved]);
      held[moved] = nullptr;
      ResidentPage& recycled = reg.insert(kUnits + moved, moved);
      EXPECT_EQ(recycled.bucket, 0u);
      EXPECT_FALSE(recycled.referenced);
      held[kUnits + moved] = &recycled;
    }
  }
  EXPECT_EQ(reg.size(), kUnits);
  for (UnitIdx u = 0; u < held.size(); ++u) {
    if (held[u] == nullptr) continue;
    EXPECT_EQ(reg.find(u), held[u]);
    EXPECT_EQ(held[u]->unit, u);
  }
  std::vector<UnitIdx> seen;
  reg.for_each([&](const ResidentPage& pg) { seen.push_back(pg.unit); });
  ASSERT_EQ(seen.size(), kUnits);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(PageRegistry, ForEachVisitsAll) {
  PageRegistry reg;
  for (UnitIdx u = 0; u < 10; ++u) reg.insert(u, u);
  std::set<UnitIdx> seen;
  reg.for_each([&](ResidentPage& pg) { seen.insert(pg.unit); });
  EXPECT_EQ(seen.size(), 10u);
}

TEST(PageRegistryDeath, DoubleInsertAborts) {
  PageRegistry reg;
  reg.insert(7, 0);
  EXPECT_DEATH(reg.insert(7, 1), "already resident");
}

TEST(PageRegistryDeath, EraseWhileOnPolicyListAborts) {
  PageRegistry reg;
  ResidentPage& pg = reg.insert(7, 0);
  ListNode anchor;  // simulate list membership
  pg.main_node.prev = &anchor;
  pg.main_node.next = &anchor;
  EXPECT_DEATH(reg.erase(pg), "policy list");
}

}  // namespace
}  // namespace cmcp::mm
