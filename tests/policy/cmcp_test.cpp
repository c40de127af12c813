// Unit tests of the CMCP policy structure (paper section 3, Fig. 4).
#include "policy/cmcp.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "testing/policy_harness.h"

namespace cmcp::policy {
namespace {

using testing::FakePolicyHost;
using testing::PageFactory;

CmcpConfig config_with_p(double p) {
  CmcpConfig config;
  config.p = p;
  return config;
}

TEST(Cmcp, PriorityCapacityFollowsP) {
  FakePolicyHost host(100, 8);
  CmcpPolicy policy(host, config_with_p(0.3));
  EXPECT_EQ(policy.max_priority_pages(), 30u);
  policy.set_p(0.0);
  EXPECT_EQ(policy.max_priority_pages(), 0u);
  policy.set_p(1.0);
  EXPECT_EQ(policy.max_priority_pages(), 100u);
}

TEST(Cmcp, StatsVisitorEnumeratesEveryCounter) {
  FakePolicyHost host(10, 8);
  CmcpPolicy policy(host, config_with_p(0.2));
  PageFactory pages(host);
  policy.on_insert(pages.make(1, 1));
  std::vector<std::string> names;
  policy.stats([&](std::string_view name, std::uint64_t) {
    names.emplace_back(name);
  });
  const std::vector<std::string> expected = {
      "promotions", "displacements", "aged_out", "priority_size", "fifo_size"};
  EXPECT_EQ(names, expected);
  // The key-lookup shim resolves through the same enumeration.
  EXPECT_EQ(testing::stat_of(policy, "priority_size"), policy.priority_size());
  EXPECT_EQ(testing::stat_of(policy, "fifo_size"), policy.fifo_size());
  EXPECT_EQ(testing::stat_of(policy, "no_such_stat"), 0u);
}

TEST(Cmcp, FillsPriorityGroupUntilFull) {
  FakePolicyHost host(10, 8);
  CmcpPolicy policy(host, config_with_p(0.2));  // room for 2
  PageFactory pages(host);
  policy.on_insert(pages.make(1, 1));
  policy.on_insert(pages.make(2, 1));
  policy.on_insert(pages.make(3, 1));
  EXPECT_EQ(policy.priority_size(), 2u);
  EXPECT_EQ(policy.fifo_size(), 1u);
}

TEST(Cmcp, HigherCountDisplacesLowestPriorityPage) {
  // The insertion rule: "if the ratio of prioritized pages already exceeds p
  // and the number of mapping cores of the new page is larger than that for
  // the lowest priority page..., the lowest priority page is moved to FIFO
  // and the new page is placed into the priority group."
  FakePolicyHost host(10, 8);
  CmcpPolicy policy(host, config_with_p(0.1));  // room for exactly 1
  PageFactory pages(host);
  auto& low = pages.make(1, 2);
  policy.on_insert(low);
  ASSERT_EQ(policy.priority_size(), 1u);

  auto& high = pages.make(2, 5);
  policy.on_insert(high);
  EXPECT_EQ(policy.priority_size(), 1u);
  EXPECT_EQ(testing::stat_of(policy, "displacements"), 1u);
  // The displaced low page is now the FIFO head.
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &low);
}

TEST(Cmcp, EqualCountDoesNotDisplace) {
  FakePolicyHost host(10, 8);
  CmcpPolicy policy(host, config_with_p(0.1));
  PageFactory pages(host);
  auto& first = pages.make(1, 3);
  policy.on_insert(first);
  auto& second = pages.make(2, 3);
  policy.on_insert(second);
  EXPECT_EQ(testing::stat_of(policy, "displacements"), 0u);
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &second);  // FIFO head
}

TEST(Cmcp, EvictionPrefersFifoHead) {
  // "the algorithm either takes the first page of the regular FIFO list..."
  FakePolicyHost host(10, 8);
  CmcpPolicy policy(host, config_with_p(0.5));
  PageFactory pages(host);
  auto& prio = pages.make(1, 6);
  auto& fifo1 = pages.make(2, 1);
  auto& fifo2 = pages.make(3, 1);
  policy.on_insert(prio);  // goes to priority (group not full)
  // Fill the group so the rest lands on FIFO.
  for (UnitIdx u = 10; u < 14; ++u) policy.on_insert(pages.make(u, 6));
  policy.on_insert(fifo1);
  policy.on_insert(fifo2);
  ASSERT_GT(policy.fifo_size(), 0u);
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &fifo1);
  (void)prio;
}

TEST(Cmcp, FallsBackToLowestPriorityWhenFifoEmpty) {
  // "...or if the regular list is empty, the lowest priority page from the
  // prioritized group is removed."
  FakePolicyHost host(10, 8);
  CmcpPolicy policy(host, config_with_p(1.0));
  PageFactory pages(host);
  auto& two = pages.make(1, 2);
  auto& five = pages.make(2, 5);
  auto& three = pages.make(3, 3);
  policy.on_insert(two);
  policy.on_insert(five);
  policy.on_insert(three);
  ASSERT_EQ(policy.fifo_size(), 0u);
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &two);
  policy.on_evict(two);
  EXPECT_EQ(policy.pick_victim(0, extra), &three);
  policy.on_evict(three);
  EXPECT_EQ(policy.pick_victim(0, extra), &five);
}

TEST(Cmcp, CoreMapGrowthPromotesFifoPage) {
  FakePolicyHost host(10, 8);
  CmcpPolicy policy(host, config_with_p(0.1));
  PageFactory pages(host);
  auto& shared = pages.make(1, 2);
  policy.on_insert(shared);  // priority (room)
  auto& page = pages.make(2, 1);
  policy.on_insert(page);  // FIFO (group full, count 1 < 2)
  ASSERT_EQ(policy.fifo_size(), 1u);

  // The page grew past the lowest prioritized page.
  host.set_core_map_count(page.unit, 4);
  policy.on_core_map_grow(page);
  EXPECT_EQ(policy.priority_size(), 1u);
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &shared);  // displaced to FIFO
}

TEST(Cmcp, GrowthWhilePrioritizedRebuckets) {
  FakePolicyHost host(10, 8);
  CmcpPolicy policy(host, config_with_p(1.0));
  PageFactory pages(host);
  auto& a = pages.make(1, 2);
  auto& b = pages.make(2, 3);
  policy.on_insert(a);
  policy.on_insert(b);
  host.set_core_map_count(a.unit, 6);
  policy.on_core_map_grow(a);  // a now outranks b
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &b);
}

TEST(Cmcp, AgingDemotesStalePrioritizedPages) {
  // "we employ a simple aging method, where all prioritized pages slowly
  // fall back to FIFO."
  FakePolicyHost host(10, 8);
  CmcpConfig config = config_with_p(1.0);
  config.age_limit_ticks = 3;
  CmcpPolicy policy(host, config);
  PageFactory pages(host);
  auto& pg = pages.make(1, 5);
  policy.on_insert(pg);
  ASSERT_EQ(policy.priority_size(), 1u);
  for (int t = 0; t < 3; ++t) policy.on_tick(t);
  EXPECT_EQ(policy.priority_size(), 1u);  // within the limit
  policy.on_tick(3);
  EXPECT_EQ(policy.priority_size(), 0u);
  EXPECT_EQ(policy.fifo_size(), 1u);
  EXPECT_EQ(testing::stat_of(policy, "aged_out"), 1u);
}

TEST(Cmcp, RemapRefreshesAge) {
  FakePolicyHost host(10, 8);
  CmcpConfig config = config_with_p(1.0);
  config.age_limit_ticks = 3;
  CmcpPolicy policy(host, config);
  PageFactory pages(host);
  auto& pg = pages.make(1, 2);
  policy.on_insert(pg);
  policy.on_tick(0);
  policy.on_tick(1);
  host.set_core_map_count(pg.unit, 3);
  policy.on_core_map_grow(pg);  // refresh
  policy.on_tick(2);
  policy.on_tick(3);
  policy.on_tick(4);
  EXPECT_EQ(policy.priority_size(), 1u);  // refreshed at tick 2
  policy.on_tick(5);
  policy.on_tick(6);
  EXPECT_EQ(policy.priority_size(), 0u);
}

TEST(Cmcp, AgingDisabledKeepsPagesPinned) {
  FakePolicyHost host(10, 8);
  CmcpConfig config = config_with_p(1.0);
  config.aging_enabled = false;
  CmcpPolicy policy(host, config);
  PageFactory pages(host);
  policy.on_insert(pages.make(1, 5));
  for (int t = 0; t < 1000; ++t) policy.on_tick(t);
  EXPECT_EQ(policy.priority_size(), 1u);
}

TEST(Cmcp, NoScannerRequired) {
  // The decisive property: CMCP needs no access-bit sampling at all.
  FakePolicyHost host(10, 8);
  CmcpPolicy policy(host, config_with_p(0.5));
  EXPECT_FALSE(policy.wants_scanner());
  PageFactory pages(host);
  for (UnitIdx u = 0; u < 10; ++u) policy.on_insert(pages.make(u, 1 + u % 4));
  Cycles extra = 0;
  for (int i = 0; i < 10; ++i) {
    mm::ResidentPage* victim = policy.pick_victim(0, extra);
    ASSERT_NE(victim, nullptr);
    policy.on_evict(*victim);
    pages.erase(*victim);
  }
  EXPECT_EQ(extra, 0u);
  EXPECT_EQ(host.shootdowns(), 0u);
}

TEST(CmcpDeath, InvalidPAborts) {
  FakePolicyHost host(10, 8);
  EXPECT_DEATH(CmcpPolicy(host, config_with_p(1.5)), "p must be");
  CmcpPolicy policy(host, config_with_p(0.5));
  EXPECT_DEATH(policy.set_p(-0.1), "p must be");
}

}  // namespace
}  // namespace cmcp::policy
