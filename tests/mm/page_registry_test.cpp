#include "mm/page_registry.h"

#include <gtest/gtest.h>

#include <set>

namespace cmcp::mm {
namespace {

TEST(PageRegistry, InsertAndFind) {
  PageRegistry reg;
  ResidentPage& pg = reg.insert(7, 100, 500);
  EXPECT_EQ(pg.unit, 7u);
  EXPECT_EQ(pg.pfn, 100u);
  EXPECT_EQ(pg.inserted_at, 500u);
  EXPECT_EQ(reg.find(7), &pg);
  EXPECT_EQ(reg.find(8), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(PageRegistry, SequenceNumbersMonotonic) {
  PageRegistry reg;
  const auto s0 = reg.insert(1, 0, 0).seq;
  const auto s1 = reg.insert(2, 1, 0).seq;
  const auto s2 = reg.insert(3, 2, 0).seq;
  EXPECT_LT(s0, s1);
  EXPECT_LT(s1, s2);
}

TEST(PageRegistry, EraseRemoves) {
  PageRegistry reg;
  ResidentPage& pg = reg.insert(7, 100, 0);
  reg.erase(pg);
  EXPECT_EQ(reg.find(7), nullptr);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(PageRegistry, ReinsertAfterEraseResetsPolicyState) {
  PageRegistry reg;
  ResidentPage& pg = reg.insert(7, 100, 0);
  pg.where = 3;
  pg.bucket = 9;
  pg.referenced = true;
  pg.ready_at = 5;
  reg.erase(pg);
  ResidentPage& fresh = reg.insert(7, 200, 10);
  EXPECT_EQ(fresh.where, 0);
  EXPECT_EQ(fresh.bucket, 0u);
  EXPECT_FALSE(fresh.referenced);
  EXPECT_EQ(fresh.ready_at, 0u);
  EXPECT_EQ(fresh.pfn, 200u);
}

TEST(PageRegistry, PointerStabilityAcrossGrowth) {
  PageRegistry reg;
  ResidentPage* first = &reg.insert(0, 0, 0);
  for (UnitIdx u = 1; u < 5000; ++u) reg.insert(u, u, 0);
  EXPECT_EQ(reg.find(0), first);
  EXPECT_EQ(first->unit, 0u);
}

TEST(PageRegistry, SeqKeepsGrowingAcrossReuse) {
  PageRegistry reg;
  ResidentPage& a = reg.insert(1, 0, 0);
  const auto seq_a = a.seq;
  reg.erase(a);
  const auto seq_b = reg.insert(1, 0, 0).seq;
  EXPECT_GT(seq_b, seq_a);
}

TEST(PageRegistry, ForEachVisitsAll) {
  PageRegistry reg;
  for (UnitIdx u = 0; u < 10; ++u) reg.insert(u, u, 0);
  std::set<UnitIdx> seen;
  reg.for_each([&](ResidentPage& pg) { seen.insert(pg.unit); });
  EXPECT_EQ(seen.size(), 10u);
}

TEST(PageRegistryDeath, DoubleInsertAborts) {
  PageRegistry reg;
  reg.insert(7, 0, 0);
  EXPECT_DEATH(reg.insert(7, 1, 0), "already resident");
}

TEST(PageRegistryDeath, EraseWhileOnPolicyListAborts) {
  PageRegistry reg;
  ResidentPage& pg = reg.insert(7, 0, 0);
  ListNode anchor;  // simulate list membership
  pg.main_node.prev = &anchor;
  pg.main_node.next = &anchor;
  EXPECT_DEATH(reg.erase(pg), "policy list");
}

}  // namespace
}  // namespace cmcp::mm
