#include "policy/lru_approx.h"

#include <gtest/gtest.h>

#include "testing/policy_harness.h"

namespace cmcp::policy {
namespace {

using testing::FakePolicyHost;
using testing::PageFactory;

TEST(LruApprox, WantsScanner) {
  LruApproxPolicy policy;
  EXPECT_TRUE(policy.wants_scanner());
}

TEST(LruApprox, NewPagesStartInactive) {
  LruApproxPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  policy.on_insert(pages.make(1));
  policy.on_insert(pages.make(2));
  EXPECT_EQ(policy.inactive_size(), 2u);
  EXPECT_EQ(policy.active_size(), 0u);
}

TEST(LruApprox, PromotionRequiresTwoReferencedScans) {
  // Linux's two-touch rule: the first observed reference is just the fault
  // that brought the page in.
  LruApproxPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& pg = pages.make(1);
  policy.on_insert(pg);
  policy.on_scan(pg, true);
  EXPECT_EQ(policy.active_size(), 0u);
  policy.on_scan(pg, true);
  EXPECT_EQ(policy.active_size(), 1u);
  EXPECT_EQ(policy.inactive_size(), 0u);
  EXPECT_EQ(testing::stat_of(policy, "promotions"), 1u);
}

TEST(LruApprox, UnreferencedInactivePagesAgeInPlace) {
  LruApproxPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& pg = pages.make(1);
  policy.on_insert(pg);
  for (int i = 0; i < 5; ++i) policy.on_scan(pg, false);
  EXPECT_EQ(policy.inactive_size(), 1u);
  EXPECT_EQ(policy.active_size(), 0u);
}

TEST(LruApprox, DemotionRequiresTwoQuietScans) {
  LruApproxPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& pg = pages.make(1);
  policy.on_insert(pg);
  policy.on_scan(pg, true);
  policy.on_scan(pg, true);  // promoted
  ASSERT_EQ(policy.active_size(), 1u);
  policy.on_scan(pg, false);  // hysteresis: stays active
  EXPECT_EQ(policy.active_size(), 1u);
  policy.on_scan(pg, false);  // second quiet window: demoted
  EXPECT_EQ(policy.active_size(), 0u);
  EXPECT_EQ(policy.inactive_size(), 1u);
  EXPECT_EQ(testing::stat_of(policy, "demotions"), 1u);
}

TEST(LruApprox, VictimsComeFromInactiveFirst) {
  LruApproxPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& hot = pages.make(1);
  auto& cold = pages.make(2);
  policy.on_insert(hot);
  policy.on_insert(cold);
  // hot gets promoted, cold stays inactive.
  policy.on_scan(hot, true);
  policy.on_scan(cold, false);
  policy.on_scan(hot, true);
  policy.on_scan(cold, false);
  ASSERT_EQ(policy.active_size(), 1u);

  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &cold);
}

TEST(LruApprox, FallsBackToActiveWhenInactiveEmpty) {
  LruApproxPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& pg = pages.make(1);
  policy.on_insert(pg);
  policy.on_scan(pg, true);
  policy.on_scan(pg, true);  // promoted; inactive now empty
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &pg);
}

TEST(LruApprox, ActiveRotationKeepsHottestLast) {
  LruApproxPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& a = pages.make(1);
  auto& b = pages.make(2);
  for (auto* pg : {&a, &b}) {
    policy.on_insert(*pg);
    policy.on_scan(*pg, true);
    policy.on_scan(*pg, true);
  }
  ASSERT_EQ(policy.active_size(), 2u);
  // Only `a` referenced now: it rotates behind b... then with inactive
  // empty the victim should be the least recently referenced = b after one
  // more referenced scan of a.
  policy.on_scan(a, true);
  policy.on_scan(b, false);  // hysteresis strip
  policy.on_scan(b, false);  // demoted to inactive
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &b);
}

TEST(LruApprox, EvictFromEitherList) {
  LruApproxPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& act = pages.make(1);
  auto& inact = pages.make(2);
  policy.on_insert(act);
  policy.on_insert(inact);
  policy.on_scan(act, true);
  policy.on_scan(act, true);
  policy.on_evict(act);
  policy.on_evict(inact);
  EXPECT_EQ(policy.active_size(), 0u);
  EXPECT_EQ(policy.inactive_size(), 0u);
}

TEST(LruApprox, ProtectsHotSetOnMixedTrace) {
  // Behavioural: with a hot set re-referenced every round and a cold
  // stream, LRU should evict the stream and keep the hot set.
  LruApproxPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  constexpr UnitIdx kHot = 4;
  std::vector<mm::ResidentPage*> hot;
  for (UnitIdx u = 0; u < kHot; ++u) {
    hot.push_back(&pages.make(u));
    policy.on_insert(*hot.back());
  }
  // Promote the hot set.
  for (int s = 0; s < 2; ++s)
    for (auto* pg : hot) policy.on_scan(*pg, true);
  ASSERT_EQ(policy.active_size(), kHot);

  // Stream 100 cold pages through with capacity kHot + 2.
  std::vector<mm::ResidentPage*> resident;
  for (UnitIdx u = 100; u < 200; ++u) {
    auto& pg = pages.make(u);
    policy.on_insert(pg);
    resident.push_back(&pg);
    if (resident.size() > 2) {
      Cycles extra = 0;
      mm::ResidentPage* victim = policy.pick_victim(0, extra);
      // The hot set must never be chosen while cold pages exist.
      for (auto* h : hot) EXPECT_NE(victim, h);
      policy.on_evict(*victim);
      std::erase(resident, victim);
      pages.erase(*victim);
    }
  }
}

}  // namespace
}  // namespace cmcp::policy
