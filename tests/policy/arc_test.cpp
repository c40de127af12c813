#include "policy/arc.h"

#include <gtest/gtest.h>

#include "policy/policy_factory.h"
#include "testing/policy_harness.h"

namespace cmcp::policy {
namespace {

using testing::FakePolicyHost;
using testing::PageFactory;

TEST(Arc, ColdPagesEnterRecencyList) {
  FakePolicyHost host(8, 4);
  ArcPolicy policy(host);
  PageFactory pages(host);
  policy.on_insert(pages.make(1));
  policy.on_insert(pages.make(2));
  EXPECT_EQ(policy.t1_size(), 2u);
  EXPECT_EQ(policy.t2_size(), 0u);
}

TEST(Arc, VictimIsT1LruWhenTargetZero) {
  FakePolicyHost host(8, 4);
  ArcPolicy policy(host);
  PageFactory pages(host);
  auto& a = pages.make(1);
  auto& b = pages.make(2);
  policy.on_insert(a);
  policy.on_insert(b);
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &a);
}

TEST(Arc, EvictedT1PageGoesToGhostB1) {
  FakePolicyHost host(8, 4);
  ArcPolicy policy(host);
  PageFactory pages(host);
  auto& a = pages.make(1);
  policy.on_insert(a);
  policy.on_evict(a);
  pages.erase(a);
  EXPECT_EQ(policy.b1_size(), 1u);
  EXPECT_EQ(policy.t1_size(), 0u);
}

TEST(Arc, RefaultFromB1EntersT2AndGrowsTarget) {
  FakePolicyHost host(8, 4);
  ArcPolicy policy(host);
  PageFactory pages(host);
  auto& a = pages.make(1);
  policy.on_insert(a);
  policy.on_evict(a);
  pages.erase(a);
  ASSERT_EQ(policy.target(), 0.0);

  auto& again = pages.make(1);
  policy.on_insert(again);
  EXPECT_EQ(policy.t2_size(), 1u);
  EXPECT_EQ(policy.b1_size(), 0u);  // consumed
  EXPECT_GT(policy.target(), 0.0);
  EXPECT_EQ(testing::stat_of(policy, "ghost_hits_b1"), 1u);
}

TEST(Arc, RefaultFromB2ShrinksTarget) {
  FakePolicyHost host(8, 4);
  ArcPolicy policy(host);
  PageFactory pages(host);
  // Get a page into T2, evict it (-> B2), refault it.
  auto& a = pages.make(1);
  policy.on_insert(a);
  host.set_core_map_count(a.unit, 2);
  policy.on_core_map_grow(a);  // T1 -> T2
  ASSERT_EQ(policy.t2_size(), 1u);
  policy.on_evict(a);
  pages.erase(a);
  ASSERT_EQ(policy.b2_size(), 1u);

  // Raise the target first so the shrink is observable.
  auto& b = pages.make(2);
  policy.on_insert(b);
  policy.on_evict(b);
  pages.erase(b);
  auto& b2 = pages.make(2);
  policy.on_insert(b2);  // B1 hit: target > 0
  const double before = policy.target();
  ASSERT_GT(before, 0.0);

  auto& a2 = pages.make(1);
  policy.on_insert(a2);  // B2 hit
  EXPECT_LT(policy.target(), before);
  EXPECT_EQ(testing::stat_of(policy, "ghost_hits_b2"), 1u);
}

TEST(Arc, MinorFaultPromotesToT2) {
  FakePolicyHost host(8, 4);
  ArcPolicy policy(host);
  PageFactory pages(host);
  auto& a = pages.make(1);
  policy.on_insert(a);
  host.set_core_map_count(a.unit, 2);
  policy.on_core_map_grow(a);
  EXPECT_EQ(policy.t1_size(), 0u);
  EXPECT_EQ(policy.t2_size(), 1u);
  EXPECT_EQ(testing::stat_of(policy, "promotions"), 1u);
}

TEST(Arc, GhostListsBounded) {
  FakePolicyHost host(4, 4);  // capacity 4 -> ghosts bounded at 4
  ArcPolicy policy(host);
  PageFactory pages(host);
  for (UnitIdx u = 0; u < 20; ++u) {
    auto& pg = pages.make(u);
    policy.on_insert(pg);
    policy.on_evict(pg);
    pages.erase(pg);
  }
  EXPECT_LE(policy.b1_size(), 4u);
}

TEST(Arc, PromotedPagesSurviveColdStreaming) {
  // Pages promoted to T2 (here via the minor-fault signal) are never chosen
  // while T1 pages exist and the target favours frequency (no ghost hits).
  FakePolicyHost host(16, 4);
  ArcPolicy policy(host);
  PageFactory pages(host);
  std::vector<mm::ResidentPage*> hot;
  for (UnitIdx u = 0; u < 4; ++u) {
    hot.push_back(&pages.make(u));
    policy.on_insert(*hot.back());
    host.set_core_map_count(hot.back()->unit, 2);
    policy.on_core_map_grow(*hot.back());  // -> T2
  }
  ASSERT_EQ(policy.t2_size(), 4u);

  std::size_t resident = 4;
  for (UnitIdx u = 100; u < 400; ++u) {
    if (resident >= 16) {
      Cycles extra = 0;
      mm::ResidentPage* victim = policy.pick_victim(0, extra);
      ASSERT_NE(victim, nullptr);
      for (auto* h : hot) ASSERT_NE(victim, h) << "hot page evicted at " << u;
      policy.on_evict(*victim);
      pages.erase(*victim);
      --resident;
    }
    policy.on_insert(pages.make(u));
    ++resident;
  }
  EXPECT_EQ(policy.t2_size(), 4u);
}

TEST(Arc, FullSimulationRunCompletes) {
  // Structural smoke via the factory (also exercised in mm_property_test).
  FakePolicyHost host(32, 8);
  PolicyParams params;
  params.kind = PolicyKind::kArc;
  auto policy = make_policy(host, params);
  EXPECT_EQ(policy->name(), "ARC-f");
}

}  // namespace
}  // namespace cmcp::policy
