// CLOCK, LFU, RANDOM, the dynamic-p controller and the policy factory.
#include <gtest/gtest.h>

#include <unordered_set>

#include "metrics/experiment.h"
#include "policy/clock_policy.h"
#include "policy/dynamic_p.h"
#include "policy/lfu.h"
#include "policy/policy_factory.h"
#include "policy/random_policy.h"
#include "testing/policy_harness.h"

namespace cmcp::policy {
namespace {

using testing::FakePolicyHost;
using testing::PageFactory;

TEST(Clock, EvictsUnreferencedHand) {
  FakePolicyHost host(8, 4);
  ClockPolicy policy(host);
  PageFactory pages(host);
  auto& a = pages.make(1);
  auto& b = pages.make(2);
  policy.on_insert(a);
  policy.on_insert(b);
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &a);
  EXPECT_EQ(extra, 0u);  // nothing referenced: no shootdowns
}

TEST(Clock, ReferencedHandGetsSecondChanceAtShootdownCost) {
  FakePolicyHost host(8, 4);
  ClockPolicy policy(host);
  PageFactory pages(host);
  auto& a = pages.make(1);
  auto& b = pages.make(2);
  policy.on_insert(a);
  policy.on_insert(b);
  host.set_accessed(1);  // a referenced
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &b);
  EXPECT_EQ(extra, host.shootdown_cost);  // clearing a's bit cost a shootdown
  EXPECT_EQ(host.shootdowns(), 1u);
  EXPECT_EQ(testing::stat_of(policy, "second_chances"), 1u);
}

TEST(Clock, AllReferencedStillYieldsVictim) {
  FakePolicyHost host(8, 4);
  ClockPolicy policy(host);
  PageFactory pages(host);
  for (UnitIdx u = 0; u < 4; ++u) {
    policy.on_insert(pages.make(u));
    host.set_accessed(u);
  }
  Cycles extra = 0;
  mm::ResidentPage* victim = policy.pick_victim(0, extra);
  ASSERT_NE(victim, nullptr);
  // Every page's bit was cleared once before the second lap chose a victim.
  EXPECT_EQ(host.shootdowns(), 4u);
}

// CLOCK stamps each second chance's shootdown at the eviction's start plus
// the cycles the decision already spent. Stamped at the faulting core's
// clock from before the fault, every slot wait was counted again by the next
// shootdown: under regular tables' broadcasts the cost doubled with each
// eviction and virtual time passed 2^53 cycles within milliseconds.
TEST(Clock, RegularTablesUnderPressureFinish) {
  metrics::RunSpec spec;
  spec.workload = wl::PaperWorkload::kCg;
  spec.cores = 56;
  spec.pt_kind = PageTableKind::kRegular;
  spec.policy.kind = PolicyKind::kClock;
  spec.memory_fraction = 0.5;
  const core::SimulationResult result = metrics::run_spec(spec);
  EXPECT_GT(result.app_total.evictions, 0u);
  std::uint64_t second_chances = 0;
  for (const auto& [name, value] : result.policy_stats)
    if (name == "second_chances") second_chances = value;
  EXPECT_GT(second_chances, 0u);
  EXPECT_LT(result.makespan, Cycles{4'000'000'000});  // 2.56e9 at seed 1234
}

TEST(Lfu, EvictsLeastFrequentlyScannedFirst) {
  LfuPolicy policy;
  EXPECT_TRUE(policy.wants_scanner());
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& rare = pages.make(1);
  auto& frequent = pages.make(2);
  policy.on_insert(rare);
  policy.on_insert(frequent);
  for (int s = 0; s < 3; ++s) policy.on_scan(frequent, true);
  policy.on_scan(rare, true);
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &rare);
  policy.on_evict(rare);
  EXPECT_EQ(policy.pick_victim(0, extra), &frequent);
}

TEST(Lfu, TiesBrokenFifoWithinBucket) {
  LfuPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& a = pages.make(1);
  auto& b = pages.make(2);
  policy.on_insert(a);
  policy.on_insert(b);
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &a);
}

TEST(Lfu, FrequencySaturates) {
  LfuPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& pg = pages.make(1);
  policy.on_insert(pg);
  for (int s = 0; s < 300; ++s) policy.on_scan(pg, true);
  EXPECT_EQ(pg.bucket, 255u);
  policy.on_evict(pg);  // must not crash on the saturated bucket
}

TEST(Random, VictimsAreResidentAndCoverTheSet) {
  RandomPolicy policy(/*seed=*/42);
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  std::unordered_set<UnitIdx> resident;
  for (UnitIdx u = 0; u < 16; ++u) {
    policy.on_insert(pages.make(u));
    resident.insert(u);
  }
  std::unordered_set<UnitIdx> victims;
  for (int i = 0; i < 200; ++i) {
    Cycles extra = 0;
    mm::ResidentPage* victim = policy.pick_victim(0, extra);
    ASSERT_NE(victim, nullptr);
    EXPECT_TRUE(resident.contains(victim->unit));
    victims.insert(victim->unit);
  }
  // Uniform choice over 16 pages across 200 draws covers nearly all.
  EXPECT_GE(victims.size(), 14u);
}

TEST(Random, SwapRemoveKeepsIndexConsistent) {
  RandomPolicy policy(7);
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  std::vector<mm::ResidentPage*> resident;
  for (UnitIdx u = 0; u < 8; ++u) {
    resident.push_back(&pages.make(u));
    policy.on_insert(*resident.back());
  }
  // Evict from the middle repeatedly; slots must stay valid.
  for (int i = 0; i < 8; ++i) {
    Cycles extra = 0;
    mm::ResidentPage* victim = policy.pick_victim(0, extra);
    ASSERT_NE(victim, nullptr);
    policy.on_evict(*victim);
    std::erase(resident, victim);
  }
}

TEST(DynamicP, AdjustsPOverWindows) {
  FakePolicyHost host(100, 8);
  DynamicPCmcpPolicy policy(host, /*start_p=*/0.5);
  const double initial = policy.current_p();
  PageFactory pages(host);
  // Feed eviction activity and one window of ticks at a time; p must move.
  UnitIdx next = 0;
  Cycles now = 0;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 10; ++i) {
      auto& pg = pages.make(next++, 1);
      policy.on_insert(pg);
      Cycles extra = 0;
      mm::ResidentPage* victim = policy.pick_victim(0, extra);
      policy.on_evict(*victim);
      pages.erase(*victim);
    }
    for (std::uint32_t t = 0; t < DynamicPCmcpPolicy::kWindowTicks; ++t)
      policy.on_tick(now++);
  }
  EXPECT_GT(testing::stat_of(policy, "adaptations"), 0u);
  EXPECT_NE(policy.current_p(), initial);
}

TEST(DynamicP, StaysWithinBounds) {
  FakePolicyHost host(100, 8);
  DynamicPCmcpPolicy policy(host, /*start_p=*/0.9);
  PageFactory pages(host);
  UnitIdx next = 0;
  bool reached_max = false;
  bool reached_min = false;
  // 30 windows: up to the top clamp, back down across [0, 1] to the bottom
  // clamp, and up again.
  const int ticks = 30 * static_cast<int>(DynamicPCmcpPolicy::kWindowTicks);
  for (int w = 0; w < ticks; ++w) {
    auto& pg = pages.make(next++, 1);
    policy.on_insert(pg);
    Cycles extra = 0;
    mm::ResidentPage* victim = policy.pick_victim(0, extra);
    policy.on_evict(*victim);
    pages.erase(*victim);
    policy.on_tick(w);
    EXPECT_GE(policy.current_p(), DynamicPCmcpPolicy::kMinP);
    EXPECT_LE(policy.current_p(), DynamicPCmcpPolicy::kMaxP);
    reached_max |= policy.current_p() == DynamicPCmcpPolicy::kMaxP;
    reached_min |= policy.current_p() == DynamicPCmcpPolicy::kMinP;
  }
  EXPECT_TRUE(reached_max);
  EXPECT_TRUE(reached_min);
}

class FactoryTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(FactoryTest, ConstructsWorkingPolicy) {
  FakePolicyHost host(32, 8);
  PolicyParams params;
  params.kind = GetParam();
  auto policy = make_policy(host, params);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->name(), to_string(GetParam()));

  PageFactory pages(host);
  for (UnitIdx u = 0; u < 4; ++u) policy->on_insert(pages.make(u, 1 + u));
  Cycles extra = 0;
  mm::ResidentPage* victim = policy->pick_victim(0, extra);
  ASSERT_NE(victim, nullptr);
  policy->on_evict(*victim);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FactoryTest,
    ::testing::Values(PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kCmcp,
                      PolicyKind::kClock, PolicyKind::kLfu, PolicyKind::kRandom,
                      PolicyKind::kCmcpDynamicP, PolicyKind::kArc),
    [](const auto& param_info) {
      std::string name(to_string(param_info.param));
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

}  // namespace
}  // namespace cmcp::policy
