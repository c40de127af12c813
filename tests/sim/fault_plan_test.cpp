// FaultPlan unit tests: spec round-tripping, the backoff formula, poison
// selection, decision-stream determinism, and the fault-aware PCIe transfer
// degenerating to the plain path when nothing fails.
#include "sim/fault_plan.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/pcie_link.h"

namespace cmcp::sim {
namespace {

TEST(FaultPlanConfig, DefaultIsDisabled) {
  const FaultPlanConfig config;
  EXPECT_FALSE(config.enabled());
}

TEST(FaultPlanConfig, AnyRateOrPoisonEnables) {
  FaultPlanConfig config;
  config.pcie_transient_rate = 0.01;
  EXPECT_TRUE(config.enabled());
  config = FaultPlanConfig{};
  config.poison_frames = 1;
  EXPECT_TRUE(config.enabled());
  config = FaultPlanConfig{};
  config.straggler_rate = 0.5;
  EXPECT_TRUE(config.enabled());
}

TEST(FaultPlanConfig, SpecRoundTripsThroughParse) {
  FaultPlanConfig config;
  config.seed = 42;
  config.pcie_transient_rate = 0.01;
  config.pcie_sticky_rate = 0.002;
  config.shootdown_ack_rate = 0.05;
  config.poison_frames = 3;
  config.straggler_rate = 0.1;
  const std::string spec = config.to_spec();
  FaultPlanConfig parsed;
  ASSERT_EQ(FaultPlanConfig::parse(spec, &parsed), "");
  EXPECT_EQ(parsed.to_spec(), spec);
  EXPECT_EQ(parsed.seed, 42u);
  EXPECT_EQ(parsed.pcie_transient_rate, 0.01);
  EXPECT_EQ(parsed.pcie_sticky_rate, 0.002);
  EXPECT_EQ(parsed.shootdown_ack_rate, 0.05);
  EXPECT_EQ(parsed.poison_frames, 3u);
  EXPECT_EQ(parsed.straggler_rate, 0.1);

  // Every spec parse accepts re-parses from its own to_spec() to the same
  // spec, so a trace header always reproduces the schedule it came from.
  const char* kSpecs[] = {
      "",
      "seed=77,pcie=0.02,sticky=0.005,ack=0.02,straggler=0.05",
      "seed=101,pcie=0.05,sticky=0.01,ack=0.05,poison=0,straggler=0",
      "seed=202,pcie=0,sticky=0,ack=0,poison=3,straggler=0.25",
      "seed=7,pcie=0.01,poison=2,ack=0.02",
      "seed=18446744073709551615,poison=18446744073709551615",
      "pcie=1,ack=0,straggler=1e-3",
      "seed=18446744073709551617",
  };
  for (const char* text : kSpecs) {
    FaultPlanConfig first;
    if (!FaultPlanConfig::parse(text, &first).empty()) continue;
    FaultPlanConfig second;
    ASSERT_EQ(FaultPlanConfig::parse(first.to_spec(), &second), "") << text;
    EXPECT_EQ(second.to_spec(), first.to_spec()) << text;
  }
}

TEST(FaultPlanConfig, DefaultKnobsAreOmittedFromSpec) {
  FaultPlanConfig config;
  config.seed = 7;
  config.pcie_transient_rate = 0.01;
  EXPECT_EQ(config.to_spec(),
            "seed=7,pcie=0.01,sticky=0,ack=0,poison=0,straggler=0");
}

TEST(FaultPlanConfig, ParseRejectsGarbage) {
  // Each rejection names the offending entry and, for a known key, its
  // allowed range.
  const std::string unknown =
      "unknown key (seed, pcie, sticky, ack, poison, straggler)";
  const struct {
    const char* spec;
    std::string error;
  } kCases[] = {
      {"bogus=1", "'bogus=1': " + unknown},
      // The recovery protocol's constants are not spec keys.
      {"retries=4", "'retries=4': " + unknown},
      {"backoff=1000", "'backoff=1000': " + unknown},
      {"cap=0", "'cap=0': " + unknown},
      {"reset=1", "'reset=1': " + unknown},
      {"ecc=1", "'ecc=1': " + unknown},
      {"mult=4294967296", "'mult=4294967296': " + unknown},
      {"window=0", "'window=0': " + unknown},
      {"seed=7,pcie=0.01,retries=0", "'retries=0': " + unknown},
      {"pcie=notanumber", "'pcie=notanumber': pcie must be in [0, 1]"},
      {"pcie=1.5", "'pcie=1.5': pcie must be in [0, 1]"},  // rate > 1
      {"seed=", "'seed=': seed must be in [0, 18446744073709551615]"},
      {",,", "'': expected key=value"},
      {"seed=1,pcie", "'pcie': expected key=value"},
      // Out-of-range integers must not wrap (a wrapped seed or poison count
      // silently changes the schedule).
      {"seed=18446744073709551617",
       "'seed=18446744073709551617': seed must be in [0, "
       "18446744073709551615]"},
      {"poison=18446744073709551616",
       "'poison=18446744073709551616': poison must be in [0, "
       "18446744073709551615]"},
      // Rates are finite numbers with nothing around them.
      {"pcie=nan", "'pcie=nan': pcie must be in [0, 1]"},
      {"ack= 0.5", "'ack= 0.5': ack must be in [0, 1]"},
      {"sticky=-0.1", "'sticky=-0.1': sticky must be in [0, 1]"},
  };
  for (const auto& c : kCases) {
    FaultPlanConfig out;
    EXPECT_EQ(FaultPlanConfig::parse(c.spec, &out), c.error) << c.spec;
  }
  // The empty spec is the default (disabled) plan.
  FaultPlanConfig out;
  EXPECT_EQ(FaultPlanConfig::parse("", &out), "");
  EXPECT_FALSE(out.enabled());
}

TEST(FaultPlanConfig, BackoffDoublesThenSaturates) {
  using C = FaultPlanConfig;  // base 2000, cap 1'000'000
  EXPECT_EQ(C::backoff(1), 2'000u);
  EXPECT_EQ(C::backoff(2), 4'000u);
  EXPECT_EQ(C::backoff(3), 8'000u);
  EXPECT_EQ(C::backoff(10), 1'000'000u);  // 2000 << 9 would exceed cap
  EXPECT_EQ(C::backoff(63), 1'000'000u);  // far past cap: no overflow
  EXPECT_EQ(C::backoff(200), 1'000'000u);
}

TEST(FaultPlan, DecisionStreamsAreSeedDeterministic) {
  FaultPlanConfig config;
  config.seed = 9;
  config.pcie_transient_rate = 0.3;
  config.pcie_sticky_rate = 0.1;
  config.shootdown_ack_rate = 0.2;
  FaultPlan a(config);
  FaultPlan b(config);
  for (int i = 0; i < 200; ++i) {
    const FaultPlan::PcieDecision da = a.next_pcie();
    const FaultPlan::PcieDecision db = b.next_pcie();
    EXPECT_EQ(da.failures, db.failures);
    EXPECT_EQ(da.sticky, db.sticky);
    EXPECT_EQ(a.next_ack_lost(), b.next_ack_lost());
  }
}

TEST(FaultPlan, StickyDecisionExhaustsTheBudget) {
  FaultPlanConfig config;
  config.pcie_sticky_rate = 1.0;
  FaultPlan plan(config);
  const FaultPlan::PcieDecision d = plan.next_pcie();
  EXPECT_TRUE(d.sticky);
  EXPECT_EQ(d.failures, FaultPlanConfig::kMaxRetries);
}

TEST(FaultPlan, SelectPoisonDrawsDistinctAlignedFrames) {
  FaultPlanConfig config;
  config.seed = 3;
  config.poison_frames = 5;
  FaultPlan plan(config);
  plan.select_poison(16, 16);  // 64 kB layout: pfns are multiples of 16
  std::set<Pfn> hit;
  for (std::uint64_t slot = 0; slot < 16; ++slot) {
    const Pfn pfn = slot * 16;
    if (plan.surfaces_at_alloc(pfn) || plan.surfaces_at_evict(pfn))
      hit.insert(pfn);
  }
  EXPECT_EQ(hit.size(), 5u);
  for (const Pfn pfn : hit) EXPECT_EQ(pfn % 16, 0u);
}

TEST(FaultPlan, PoisonClampedToLeaveOneUsableFrame) {
  FaultPlanConfig config;
  config.poison_frames = 100;
  FaultPlan plan(config);
  plan.select_poison(4, 1);
  unsigned poisoned = 0;
  for (Pfn pfn = 0; pfn < 4; ++pfn)
    if (plan.surfaces_at_alloc(pfn) || plan.surfaces_at_evict(pfn)) ++poisoned;
  EXPECT_EQ(poisoned, 3u);  // capacity - 1, never the whole device
}

TEST(FaultPlan, PoisonSurfacesExactlyOnce) {
  FaultPlanConfig config;
  config.poison_frames = 3;  // clamped to 1 by capacity 2
  FaultPlan plan(config);
  plan.select_poison(2, 1);
  Pfn poisoned = kInvalidPfn;
  bool at_alloc = false;
  for (Pfn pfn = 0; pfn < 2; ++pfn) {
    if (plan.surfaces_at_alloc(pfn)) { poisoned = pfn; at_alloc = true; }
    else if (plan.surfaces_at_evict(pfn)) { poisoned = pfn; }
  }
  ASSERT_NE(poisoned, kInvalidPfn);
  // Consumed: neither path reports the same frame again.
  EXPECT_FALSE(plan.surfaces_at_alloc(poisoned));
  EXPECT_FALSE(plan.surfaces_at_evict(poisoned));
  (void)at_alloc;
}

TEST(FaultPlan, StragglerDecisionIsAPureHash) {
  FaultPlanConfig config;
  config.seed = 11;
  config.straggler_rate = 0.5;
  FaultPlan plan(config);
  // Find an afflicted (core, window) pair, then re-query out of order: the
  // multiplier must not depend on query history.
  for (CoreId core = 0; core < 4; ++core) {
    for (std::uint64_t w = 0; w < 8; ++w) {
      const Cycles now = w * FaultPlanConfig::kStragglerWindow + 17;
      bool start = false;
      const unsigned first = plan.straggler_mult_at(core, now, &start);
      bool again = false;
      EXPECT_EQ(plan.straggler_mult_at(core, now, &again), first);
      if (first > 1) {
        EXPECT_TRUE(start);           // first query of the window
        EXPECT_FALSE(again);          // emitted exactly once per window
        EXPECT_EQ(first, FaultPlanConfig::kStragglerMult);
      }
    }
  }
}

TEST(FaultPlan, StatsAggregateAcrossKindsAndTenants) {
  FaultPlanConfig config;
  config.pcie_transient_rate = 0.1;
  FaultPlan plan(config);
  plan.record(FaultKind::kPcieTransient, 0, 2, 2, false, 1'000);
  plan.record(FaultKind::kShootdownAck, 1, 1, 3, true, 5'000);
  plan.record_quarantine();
  plan.record_straggler_cycles(7'000);
  const FaultStats stats = plan.stats();
  EXPECT_EQ(stats.injected[0], 2u);
  EXPECT_EQ(stats.injected[2], 1u);
  EXPECT_EQ(stats.total_injected(), 3u);
  EXPECT_EQ(stats.retries, 5u);
  EXPECT_EQ(stats.give_ups, 1u);
  EXPECT_EQ(stats.frames_quarantined, 1u);
  EXPECT_EQ(stats.recovery_cycles, 6'000u);
  EXPECT_EQ(stats.straggler_cycles, 7'000u);
  ASSERT_EQ(stats.per_asid_faults.size(), 2u);
  EXPECT_EQ(stats.per_asid_faults[0], 2u);
  EXPECT_EQ(stats.per_asid_faults[1], 1u);
  EXPECT_EQ(stats.per_asid_recovery[1], 5'000u);
}

TEST(FaultyPcieTest, ZeroFailureOutcomeMatchesPlainTransfer) {
  // A disabled plan must be arithmetic-identical to a null plan: same
  // completion time, same queueing, same byte counters.
  FaultPlanConfig config;  // disabled; next_pcie always returns healthy
  FaultPlan plan(config);
  PcieLink faulty;
  PcieLink plain;
  for (int i = 0; i < 5; ++i) {
    const PcieTransferOutcome expected =
        plain.transfer(PcieDir::kHostToDevice, 100 * i, 4096, nullptr);
    const PcieTransferOutcome out =
        faulty.transfer(PcieDir::kHostToDevice, 100 * i, 4096, &plan);
    EXPECT_EQ(out.done, expected.done);
    EXPECT_EQ(out.queue_wait, expected.queue_wait);
    EXPECT_EQ(out.failures, 0u);
    EXPECT_FALSE(out.gave_up);
    EXPECT_EQ(out.recovery, 0u);
  }
  EXPECT_EQ(faulty.bytes_moved(PcieDir::kHostToDevice),
            plain.bytes_moved(PcieDir::kHostToDevice));
  EXPECT_EQ(faulty.transfers(PcieDir::kHostToDevice),
            plain.transfers(PcieDir::kHostToDevice));
}

TEST(FaultyPcieTest, TransientFailurePaysOneAttemptAndBackoff) {
  FaultPlanConfig config;
  config.pcie_transient_rate = 1.0;
  FaultPlan plan(config);
  PcieLink link;
  const PcieTransferOutcome out =
      link.transfer(PcieDir::kHostToDevice, 0, 4096, &plan);
  const Cycles attempt =
      CostModel::pcie_setup + CostModel::pcie_transfer_cycles(4096);
  EXPECT_EQ(out.failures, 1u);
  EXPECT_FALSE(out.gave_up);
  EXPECT_EQ(out.attempt_cost, attempt);
  EXPECT_EQ(out.done, 2 * attempt + FaultPlanConfig::backoff(1));
  EXPECT_EQ(out.recovery, attempt + FaultPlanConfig::backoff(1));
  // The failed attempt's junk bytes occupied the wire.
  EXPECT_EQ(link.bytes_moved(PcieDir::kHostToDevice), 2 * 4096u);
  EXPECT_EQ(link.transfers(PcieDir::kHostToDevice), 1u);
}

TEST(FaultyPcieTest, StickyFailureResetsLinkAndStillDelivers) {
  FaultPlanConfig config;
  config.pcie_sticky_rate = 1.0;
  FaultPlan plan(config);
  PcieLink link;
  const PcieTransferOutcome out =
      link.transfer(PcieDir::kDeviceToHost, 0, 4096, &plan);
  const Cycles attempt =
      CostModel::pcie_setup + CostModel::pcie_transfer_cycles(4096);
  constexpr unsigned kRetries = FaultPlanConfig::kMaxRetries;
  EXPECT_EQ(out.failures, kRetries);
  EXPECT_TRUE(out.gave_up);
  // kMaxRetries failed attempts: backoff after all but the last, link reset
  // after the final one; then the post-reset replay lands.
  Cycles expected = (kRetries + 1) * attempt + FaultPlanConfig::kLinkResetCycles;
  for (unsigned i = 1; i < kRetries; ++i) expected += FaultPlanConfig::backoff(i);
  EXPECT_EQ(out.done, expected);
  EXPECT_EQ(out.recovery, expected - attempt);
}

}  // namespace
}  // namespace cmcp::sim
