// Property tests for CMCP under randomized traces.
#include <gtest/gtest.h>

#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "policy/cmcp.h"
#include "policy/fifo.h"
#include "testing/policy_harness.h"

namespace cmcp::policy {
namespace {

using testing::FakePolicyHost;
using testing::PageFactory;

struct TraceParams {
  double p;
  std::uint64_t seed;
};

// gtest would print the struct as raw bytes, and CTest names each case from
// that printout; printing the fields names the cases p0.5-seed3.
void PrintTo(const TraceParams& params, std::ostream* os) {
  *os << 'p' << params.p << "-seed" << params.seed;
}

class CmcpTraceTest : public ::testing::TestWithParam<TraceParams> {};

// Invariants under arbitrary insert / grow / evict / tick interleavings:
// group sizes consistent, priority never exceeds its cap, pick_victim always
// succeeds while pages are resident.
TEST_P(CmcpTraceTest, StructuralInvariantsUnderRandomTrace) {
  constexpr std::uint64_t kCapacity = 64;
  FakePolicyHost host(kCapacity, 16);
  CmcpConfig config;
  config.p = GetParam().p;
  config.age_limit_ticks = 5;
  CmcpPolicy policy(host, config);
  PageFactory pages(host);
  Rng rng(GetParam().seed);

  std::unordered_map<UnitIdx, mm::ResidentPage*> resident;
  UnitIdx next_unit = 0;
  std::uint64_t ticks = 0;

  for (int step = 0; step < 20000; ++step) {
    const auto action = rng.next_below(100);
    if (action < 45) {  // insert (with eviction when at capacity)
      if (resident.size() >= kCapacity) {
        Cycles extra = 0;
        mm::ResidentPage* victim = policy.pick_victim(0, extra);
        ASSERT_NE(victim, nullptr);
        policy.on_evict(*victim);
        resident.erase(victim->unit);
        pages.erase(*victim);
      }
      auto& pg = pages.make(next_unit++, 1 + rng.next_below(16));
      policy.on_insert(pg);
      resident.emplace(pg.unit, &pg);
    } else if (action < 75) {  // core-map growth of a random resident page
      if (!resident.empty()) {
        auto it = resident.begin();
        std::advance(it, rng.next_below(resident.size()) % resident.size());
        const mm::ResidentPage& pg = *it->second;
        if (host.core_map_count(pg) < 16) {
          host.set_core_map_count(pg.unit, host.core_map_count(pg) + 1);
          policy.on_core_map_grow(*it->second);
        }
      }
    } else if (action < 90) {  // explicit eviction
      if (!resident.empty()) {
        Cycles extra = 0;
        mm::ResidentPage* victim = policy.pick_victim(0, extra);
        ASSERT_NE(victim, nullptr);
        ASSERT_TRUE(resident.contains(victim->unit));
        policy.on_evict(*victim);
        resident.erase(victim->unit);
        pages.erase(*victim);
      }
    } else {  // aging tick
      policy.on_tick(ticks++);
    }

    // Invariants.
    ASSERT_EQ(policy.priority_size() + policy.fifo_size(), resident.size());
    ASSERT_LE(policy.priority_size(), policy.max_priority_pages());
  }
}

INSTANTIATE_TEST_SUITE_P(
    PAndSeed, CmcpTraceTest,
    ::testing::Values(TraceParams{0.0, 1}, TraceParams{0.0, 2},
                      TraceParams{0.1, 1}, TraceParams{0.3, 2},
                      TraceParams{0.5, 3}, TraceParams{0.7, 4},
                      TraceParams{1.0, 5}, TraceParams{1.0, 6}));

// p = 0 must degenerate to FIFO exactly (paper: "With p converging to 0, the
// algorithm falls back to the simple FIFO replacement").
TEST(CmcpEquivalence, PZeroMatchesFifoVictimForVictim) {
  FakePolicyHost host(32, 8);
  CmcpConfig config;
  config.p = 0.0;
  CmcpPolicy cmcp(host, config);
  FifoPolicy fifo;
  PageFactory cmcp_pages(host), fifo_pages(host);
  Rng rng(77);

  std::unordered_set<UnitIdx> resident;
  UnitIdx next_unit = 0;
  for (int step = 0; step < 5000; ++step) {
    if (resident.size() >= 32 || (rng.next() & 1 && !resident.empty())) {
      Cycles extra = 0;
      mm::ResidentPage* cv = cmcp.pick_victim(0, extra);
      mm::ResidentPage* fv = fifo.pick_victim(0, extra);
      ASSERT_NE(cv, nullptr);
      ASSERT_NE(fv, nullptr);
      ASSERT_EQ(cv->unit, fv->unit) << "diverged at step " << step;
      cmcp.on_evict(*cv);
      fifo.on_evict(*fv);
      resident.erase(cv->unit);
      cmcp_pages.erase(*cv);
      fifo_pages.erase(*fv);
    } else {
      const unsigned count = 1 + rng.next_below(8);
      auto& a = cmcp_pages.make(next_unit, count);
      auto& b = fifo_pages.make(next_unit, count);
      ++next_unit;
      cmcp.on_insert(a);
      fifo.on_insert(b);
      // Random growth events must not perturb the p=0 equivalence.
      if (rng.next() % 4 == 0) {
        host.set_core_map_count(a.unit, count + 1);  // a and b share the unit
        cmcp.on_core_map_grow(a);
        fifo.on_core_map_grow(b);
      }
      resident.insert(a.unit);
    }
  }
}

// With p = 1 and distinct counts, eviction order (FIFO empty) is exactly
// ascending core-map count.
TEST(CmcpOrdering, FullPriorityEvictsAscendingByCount) {
  FakePolicyHost host(16, 16);
  CmcpConfig config;
  config.p = 1.0;
  config.aging_enabled = false;
  CmcpPolicy policy(host, config);
  PageFactory pages(host);
  // Insert counts in scrambled order.
  const unsigned counts[] = {7, 2, 11, 4, 15, 1, 9, 3};
  std::vector<mm::ResidentPage*> inserted;
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    inserted.push_back(&pages.make(i, counts[i]));
    policy.on_insert(*inserted.back());
  }
  unsigned prev = 0;
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    Cycles extra = 0;
    mm::ResidentPage* victim = policy.pick_victim(0, extra);
    ASSERT_NE(victim, nullptr);
    EXPECT_GE(host.core_map_count(*victim), prev);
    prev = host.core_map_count(*victim);
    policy.on_evict(*victim);
  }
}

// CMCP protects shared-hot pages on a CG-like trace: shared pages recur
// every round; the cold stream cycles. CMCP must fault less than FIFO.
TEST(CmcpBehaviour, BeatsFifoOnRecurringSharedPages) {
  constexpr std::uint64_t kCapacity = 128;
  constexpr UnitIdx kShared = 48;    // count 4, touched every round
  constexpr UnitIdx kStream = 512;   // count 1, cyclic
  std::vector<UnitIdx> trace;
  for (int round = 0; round < 20; ++round) {
    for (UnitIdx u = 0; u < kShared; ++u) trace.push_back(u);
    for (UnitIdx u = 0; u < kStream; ++u) trace.push_back(1000 + u);
  }

  const auto run = [&](ReplacementPolicy& policy, PageFactory& pages) {
    std::unordered_map<UnitIdx, mm::ResidentPage*> resident;
    std::uint64_t faults = 0;
    std::uint64_t ops = 0;
    for (const UnitIdx unit : trace) {
      if (++ops % 64 == 0) policy.on_tick(ops);
      if (resident.contains(unit)) continue;
      ++faults;
      if (resident.size() >= kCapacity) {
        Cycles extra = 0;
        mm::ResidentPage* victim = policy.pick_victim(0, extra);
        policy.on_evict(*victim);
        resident.erase(victim->unit);
        pages.erase(*victim);
      }
      auto& pg = pages.make(unit, unit < 1000 ? 4 : 1);
      policy.on_insert(pg);
      resident.emplace(unit, &pg);
    }
    return faults;
  };

  FakePolicyHost host(kCapacity, 8);
  CmcpConfig config;
  config.p = 0.5;
  CmcpPolicy cmcp(host, config);
  FifoPolicy fifo;
  PageFactory a(host), b(host);
  const std::uint64_t cmcp_faults = run(cmcp, a);
  const std::uint64_t fifo_faults = run(fifo, b);
  // FIFO refaults the shared set every round; CMCP pins it.
  EXPECT_LT(cmcp_faults, fifo_faults - 15 * kShared / 2);
}

}  // namespace
}  // namespace cmcp::policy
