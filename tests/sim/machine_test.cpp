#include "sim/machine.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/simulation.h"
#include "sim/fault_plan.h"
#include "workloads/workload_factory.h"

namespace cmcp::sim {
namespace {

MachineConfig small_config(CoreId cores = 4) {
  MachineConfig config;
  config.num_cores = cores;
  return config;
}

/// Index units [0, 64) in every TLB of `m`, as each core's address space
/// sizes its cores' TLBs to its area.
void size_tlbs(Machine& m) {
  for (CoreId c = 0; c < m.total_cores(); ++c) m.tlb(c).size_units(64);
}

TEST(Machine, ClocksStartAtZero) {
  Machine m(small_config());
  for (CoreId c = 0; c < 4; ++c) EXPECT_EQ(m.clock(c), 0u);
  EXPECT_EQ(m.clock(m.scanner_core()), 0u);
}

TEST(Machine, AdvanceAndSetClock) {
  Machine m(small_config());
  m.advance(1, 100);
  m.advance(1, 50);
  EXPECT_EQ(m.clock(1), 150u);
  m.set_clock(1, 1000);
  EXPECT_EQ(m.clock(1), 1000u);
  EXPECT_EQ(m.clock(0), 0u);
}

TEST(Machine, ScannerCoreHasOwnTlbAndCounters) {
  Machine m(small_config(2));
  size_tlbs(m);
  m.tlb(m.scanner_core()).insert(7);
  EXPECT_TRUE(m.tlb(m.scanner_core()).lookup(7));
  EXPECT_FALSE(m.tlb(0).lookup(7));
}

TEST(Machine, ShootdownChargesInitiatorAndReceivers) {
  Machine m(small_config(4));
  size_tlbs(m);
  m.tlb(1).insert(42);
  m.tlb(2).insert(42);

  CoreMask targets;
  targets.set(1);
  targets.set(2);
  const Cycles initiator_cycles = m.shootdown(0, 0, targets, targets, 42);

  EXPECT_GT(initiator_cycles, 0u);
  EXPECT_EQ(m.counters(0).shootdowns_initiated, 1u);
  // Receivers: interrupted, invalidated, clocks advanced.
  for (CoreId c : {CoreId{1}, CoreId{2}}) {
    EXPECT_EQ(m.counters(c).ipis_received, 1u);
    EXPECT_EQ(m.counters(c).remote_invalidations_received, 1u);
    EXPECT_GT(m.counters(c).cycles_interrupt, 0u);
    EXPECT_GT(m.clock(c), 0u);
    EXPECT_FALSE(m.tlb(c).lookup(42));
  }
  // Non-targets untouched.
  EXPECT_EQ(m.counters(3).ipis_received, 0u);
  EXPECT_EQ(m.clock(3), 0u);
  // Initiator's own clock is advanced by the caller, not by shootdown().
  EXPECT_EQ(m.clock(0), 0u);
}

TEST(Machine, ShootdownWithEmptyMaskIsFree) {
  Machine m(small_config(4));
  EXPECT_EQ(m.shootdown(0, 0, CoreMask{}, CoreMask{}, 1), 0u);
  EXPECT_EQ(m.counters(0).shootdowns_initiated, 0u);
}

TEST(MachineDeath, InitiatorInTargetMaskAborts) {
  Machine m(small_config(4));
  CoreMask targets;
  targets.set(0);
  EXPECT_DEATH(m.shootdown(0, 0, targets, targets, 1), "");
}

TEST(Machine, BatchShootdownChargesPerMappedUnit) {
  Machine m(small_config(4));
  size_tlbs(m);
  m.tlb(1).insert(10);
  m.tlb(1).insert(11);
  m.tlb(2).insert(11);

  CoreMask only1;
  only1.set(1);
  CoreMask both;
  both.set(1);
  both.set(2);
  const std::array<Machine::BatchItem, 2> items = {
      Machine::BatchItem{10, only1, only1}, Machine::BatchItem{11, both, both}};
  const Cycles cycles = m.shootdown_batch(0, 0, items);
  EXPECT_GT(cycles, 0u);

  // Core 1 maps both units, core 2 only one.
  EXPECT_EQ(m.counters(1).remote_invalidations_received, 2u);
  EXPECT_EQ(m.counters(2).remote_invalidations_received, 1u);
  EXPECT_EQ(m.counters(1).ipis_received, 1u);  // one IPI for the whole batch
  EXPECT_EQ(m.counters(2).ipis_received, 1u);
  EXPECT_FALSE(m.tlb(1).lookup(10));
  EXPECT_FALSE(m.tlb(1).lookup(11));
  EXPECT_FALSE(m.tlb(2).lookup(11));
}

TEST(Machine, BatchShootdownSkipsInitiator) {
  Machine m(small_config(2));
  CoreMask self_only;
  self_only.set(0);
  const std::array<Machine::BatchItem, 1> items = {
      Machine::BatchItem{5, self_only, self_only}};
  EXPECT_EQ(m.shootdown_batch(0, 0, items), 0u);
  EXPECT_EQ(m.counters(0).ipis_received, 0u);
}

// The 512/1024-core sweep shape: 1024 app cores plus the scanner
// pseudo-core make masks whose live words run through all 17.
TEST(Machine, WideMachineShootdownChargesEachTargetOnce) {
  Machine m(small_config(1024));
  ASSERT_EQ(m.total_cores(), 1025u);
  size_tlbs(m);
  m.tlb(1023).insert(7);
  m.tlb(1024).insert(7);

  // Broadcast from core 0 to every other core of the machine.
  CoreMask targets = CoreMask::first_n(m.total_cores());
  targets.clear(0);
  EXPECT_GT(m.shootdown(0, 0, targets, targets, 7), 0u);
  std::uint64_t ipis = 0;
  for (CoreId c = 0; c < m.total_cores(); ++c) {
    const std::uint64_t want = c == 0 ? 0u : 1u;
    EXPECT_EQ(m.counters(c).ipis_received, want) << "core " << c;
    EXPECT_EQ(m.counters(c).remote_invalidations_received, want)
        << "core " << c;
    ipis += m.counters(c).ipis_received;
  }
  EXPECT_EQ(ipis, 1024u);
  EXPECT_FALSE(m.tlb(1023).lookup(7));
  EXPECT_FALSE(m.tlb(1024).lookup(7));
}

TEST(Machine, WideMachineBatchStraddlingWordsChargesEachTargetOnce) {
  Machine m(small_config(1024));
  size_tlbs(m);
  m.tlb(1023).insert(10);
  m.tlb(1023).insert(11);
  m.tlb(64).insert(10);

  // Targets on both sides of the 64-, 128-, 512- and 1024-bit boundaries;
  // the initiator (core 0) in an item's mask is skipped.
  const auto mask = [](std::initializer_list<CoreId> cores) {
    CoreMask out;
    for (const CoreId c : cores) out.set(c);
    return out;
  };
  const std::array<Machine::BatchItem, 3> items = {
      Machine::BatchItem{10, mask({63, 64, 1023}), mask({63, 64, 1023})},
      Machine::BatchItem{11, mask({127, 128, 1023, 1024}),
                         mask({127, 128, 1023, 1024})},
      Machine::BatchItem{12, mask({0, 511, 512}), mask({0, 511, 512})}};
  EXPECT_GT(m.shootdown_batch(0, 0, items), 0u);

  const std::array<std::pair<CoreId, std::uint64_t>, 8> invals = {{
      {63, 1}, {64, 1}, {127, 1}, {128, 1}, {511, 1}, {512, 1},
      {1023, 2}, {1024, 1}}};
  std::uint64_t ipis = 0;
  for (CoreId c = 0; c < m.total_cores(); ++c) ipis += m.counters(c).ipis_received;
  EXPECT_EQ(ipis, invals.size());
  for (const auto& [core, n] : invals) {
    EXPECT_EQ(m.counters(core).ipis_received, 1u) << "core " << core;
    EXPECT_EQ(m.counters(core).remote_invalidations_received, n)
        << "core " << core;
  }
  EXPECT_EQ(m.counters(0).ipis_received, 0u);
  EXPECT_FALSE(m.tlb(1023).lookup(10));
  EXPECT_FALSE(m.tlb(1023).lookup(11));
  EXPECT_FALSE(m.tlb(64).lookup(10));
}

// Holders are host-side knowledge: a shootdown whose holders are a strict
// subset of its targets must charge exactly what the full-mask shootdown
// charges, and only the holders' TLBs lose the entry. Every target caches
// the unit here, so a skipped invalidation shows as a surviving entry.
enum class ShootdownPath { kIpi, kBatch, kHardware, kHardwareBatch };

class HoldersTest : public ::testing::TestWithParam<ShootdownPath> {
 protected:
  static constexpr UnitIdx kUnit = 42;

  /// Shoot down kUnit from core 0 to cores {1, 2, 3}, caching it on all
  /// three first, and end the run. Returns the initiator's cycles. The
  /// targets are every core but the initiator, so shootdown() takes the
  /// machine-wide path that fold_broadcasts() completes.
  static Cycles run(Machine& m, const CoreMask& holders) {
    size_tlbs(m);
    for (CoreId c = 1; c < 4; ++c) m.tlb(c).insert(kUnit);
    CoreMask targets;
    for (CoreId c = 1; c < 4; ++c) targets.set(c);
    const ShootdownPath path = GetParam();
    const std::array<Machine::BatchItem, 1> items = {
        Machine::BatchItem{kUnit, targets, holders}};
    const Cycles cycles =
        path == ShootdownPath::kBatch || path == ShootdownPath::kHardwareBatch
            ? m.shootdown_batch(0, 0, items)
            : m.shootdown(0, 0, targets, holders, kUnit);
    m.fold_broadcasts();
    return cycles;
  }

  static MachineConfig config() {
    MachineConfig c = small_config(4);
    if (GetParam() == ShootdownPath::kHardware ||
        GetParam() == ShootdownPath::kHardwareBatch)
      c.tlb_coherence = TlbCoherence::kHardwareDirectory;
    return c;
  }
};

TEST_P(HoldersTest, SubsetChargesLikeFullMaskAndInvalidatesOnlyHolders) {
  Machine full(config());
  Machine subset(config());
  CoreMask all;
  for (CoreId c = 1; c < 4; ++c) all.set(c);
  CoreMask only2;
  only2.set(2);

  EXPECT_EQ(run(full, all), run(subset, only2));
  for (CoreId c = 0; c < subset.total_cores(); ++c) {
    EXPECT_EQ(subset.counters(c), full.counters(c)) << "core " << c;
    EXPECT_EQ(subset.clock(c), full.clock(c)) << "core " << c;
  }
  EXPECT_GT(subset.counters(1).remote_invalidations_received, 0u);
  for (CoreId c = 1; c < 4; ++c) {
    EXPECT_FALSE(full.tlb(c).lookup(kUnit)) << "core " << c;
    EXPECT_EQ(subset.tlb(c).lookup(kUnit), c != 2) << "core " << c;
  }
}

std::string path_name(const ::testing::TestParamInfo<ShootdownPath>& p) {
  switch (p.param) {
    case ShootdownPath::kIpi: return "Ipi";
    case ShootdownPath::kBatch: return "Batch";
    case ShootdownPath::kHardware: return "Hardware";
    case ShootdownPath::kHardwareBatch: return "HardwareBatch";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllPaths, HoldersTest,
                         ::testing::Values(ShootdownPath::kIpi,
                                           ShootdownPath::kBatch,
                                           ShootdownPath::kHardware,
                                           ShootdownPath::kHardwareBatch),
                         path_name);

// A shootdown aimed at every app core but the initiator is charged in O(1):
// the machine-wide interrupt offset moves every app core's clock, the
// initiator's own clock takes it back, and the receivers' counters are
// folded in when the run ends. The eager reference is the same machine with
// one spare app core that no operation reaches: there no target set is
// every app core but the initiator, so every receiver is charged one by one.
// Tenant 0 holds cores 0-4 and tenant 1 the one core 5, and initiators are
// app cores, that one core and both scanners.
class MachineWideTest : public ::testing::TestWithParam<TlbCoherence> {
 protected:
  static constexpr CoreId kApp = 6;
  static constexpr UnitIdx kUnits = 8;

  static MachineConfig config(CoreId cores) {
    MachineConfig c = small_config(cores);
    c.tlb_coherence = GetParam();
    return c;
  }

  /// The reference machine's id for core `c` of the offset machine: the
  /// spare app core shifts the scanner pseudo-cores up by one.
  static CoreId ref(CoreId c) { return c < kApp ? c : c + 1; }
};

TEST_P(MachineWideTest, OffsetChargingMatchesEagerReference) {
  Machine fast(config(kApp), 2);
  Machine eager(config(kApp + 1), 2);
  for (Machine* m : {&fast, &eager}) {
    size_tlbs(*m);
    for (CoreId c = kApp - 1; c < m->num_cores(); ++c) m->set_core_space(c, 1);
  }
  FaultPlanConfig fc;
  fc.seed = 5;
  fc.shootdown_ack_rate = 0.3;
  FaultPlan fast_faults(fc);
  FaultPlan eager_faults(fc);
  fast.set_fault_plan(&fast_faults);
  eager.set_fault_plan(&eager_faults);

  Rng rng(20140623);
  const CoreMask app = CoreMask::first_n(kApp);
  const auto pick_initiator = [&]() -> CoreId {
    switch (rng.next_below(4)) {
      case 0: return fast.scanner_core(static_cast<Asid>(rng.next_below(2)));
      case 1: return kApp - 1;  // the one core of tenant 1
      default: return static_cast<CoreId>(rng.next_below(kApp - 1));
    }
  };
  // Every app core but the initiator half the time, else a random subset.
  const auto pick_targets = [&](CoreId initiator) {
    CoreMask out;
    if (rng.next_below(2) == 0) {
      out = app;
    } else {
      for (CoreId c = 0; c < kApp; ++c)
        if (rng.next_below(2) == 0) out.set(c);
    }
    out.clear(initiator);
    return out;
  };
  const auto random_subset = [&] {
    CoreMask out;
    for (CoreId c = 0; c < kApp; ++c)
      if (rng.next_below(3) != 0) out.set(c);
    return out;
  };

  // The engine keys cores by offset-free clocks, so a shootdown must never
  // take back more than it returns for the initiator to wait.
  const auto expect_no_fall = [&](CoreId initiator, Cycles before,
                                  Cycles cycles, int op) {
    EXPECT_GE(fast.offset_free_clock(initiator) + cycles, before)
        << "op " << op;
  };
  bool took_offset = false;
  for (int op = 0; op < 600; ++op) {
    const CoreId initiator = pick_initiator();
    const Cycles now = fast.clock(initiator);
    const Cycles before = fast.offset_free_clock(initiator);
    ASSERT_EQ(now, eager.clock(ref(initiator))) << "op " << op;
    switch (rng.next_below(5)) {
      case 0:
      case 1: {
        const CoreMask targets = pick_targets(initiator);
        const CoreMask holders = random_subset();
        const auto unit = static_cast<UnitIdx>(rng.next_below(kUnits));
        const Cycles cycles =
            fast.shootdown(initiator, now, targets, holders, unit);
        ASSERT_EQ(cycles,
                  eager.shootdown(ref(initiator), now, targets, holders, unit))
            << "op " << op;
        expect_no_fall(initiator, before, cycles, op);
        break;
      }
      case 2: {
        std::vector<Machine::BatchItem> items;
        const auto n = 1 + rng.next_below(4);
        // All items machine-wide (the regular-table scanner's batch), or
        // each drawn on its own.
        const bool wide = rng.next_below(2) == 0;
        for (std::uint64_t i = 0; i < n; ++i)
          items.push_back({static_cast<UnitIdx>(rng.next_below(kUnits)),
                           wide ? app : pick_targets(initiator),
                           random_subset()});
        const Cycles cycles = fast.shootdown_batch(initiator, now, items);
        ASSERT_EQ(cycles, eager.shootdown_batch(ref(initiator), now, items))
            << "op " << op;
        expect_no_fall(initiator, before, cycles, op);
        break;
      }
      case 3: {
        // set_clock and advance move the effective clock, whatever the
        // offset.
        const Cycles later = now + rng.next_below(50'000);
        fast.set_clock(initiator, later);
        eager.set_clock(ref(initiator), later);
        const Cycles step = rng.next_below(5'000);
        fast.advance(initiator, step);
        eager.advance(ref(initiator), step);
        break;
      }
      case 4: {
        const auto unit = static_cast<UnitIdx>(rng.next_below(kUnits));
        for (CoreId c = 0; c < kApp; ++c) {
          fast.tlb(c).insert(unit);
          eager.tlb(c).insert(unit);
        }
        break;
      }
    }
    took_offset = took_offset || fast.clock(0) != fast.offset_free_clock(0);
    for (CoreId c = 0; c < fast.total_cores(); ++c)
      ASSERT_EQ(fast.clock(c), eager.clock(ref(c))) << "op " << op << " core " << c;
  }
  EXPECT_EQ(took_offset, GetParam() == TlbCoherence::kIpiShootdown);
  for (CoreId c = 0; c < eager.num_cores(); ++c)
    EXPECT_EQ(eager.offset_free_clock(c), eager.clock(c)) << "core " << c;

  fast.fold_broadcasts();
  eager.fold_broadcasts();
  for (CoreId c = 0; c < fast.total_cores(); ++c) {
    EXPECT_EQ(fast.clock(c), eager.clock(ref(c))) << "core " << c;
    EXPECT_EQ(fast.counters(c), eager.counters(ref(c))) << "core " << c;
    for (UnitIdx u = 0; u < kUnits; ++u)
      EXPECT_EQ(fast.tlb(c).lookup(u), eager.tlb(ref(c)).lookup(u))
          << "core " << c << " unit " << u;
  }
  for (CoreId c = 0; c < kApp; ++c)
    EXPECT_EQ(fast.offset_free_clock(c), fast.clock(c)) << "core " << c;
  EXPECT_EQ(eager.counters(kApp), metrics::CoreCounters{});
  // Directory hardware takes no acks, so only IPI rounds lose them.
  EXPECT_EQ(fast_faults.stats(), eager_faults.stats());
  EXPECT_EQ(fast_faults.stats().total_injected() > 0,
            GetParam() == TlbCoherence::kIpiShootdown);
}

INSTANTIATE_TEST_SUITE_P(BothCoherences, MachineWideTest,
                         ::testing::Values(TlbCoherence::kIpiShootdown,
                                           TlbCoherence::kHardwareDirectory),
                         [](const ::testing::TestParamInfo<TlbCoherence>& p) {
                           return p.param == TlbCoherence::kIpiShootdown
                                      ? std::string("Ipi")
                                      : std::string("Hardware");
                         });

TEST(Machine, AggregateExcludesScanner) {
  // A run's app_total sums the app cores' counters; the LRU scanner's
  // pseudo-core, which also evicts and shoots down, reports separately.
  wl::WorkloadParams params;
  params.cores = 2;
  params.scale = 0.05;
  const auto w = wl::make_paper_workload(wl::PaperWorkload::kBt, params);
  core::SimulationConfig config;
  config.machine.num_cores = 2;
  config.policy.kind = PolicyKind::kLru;
  config.memory_fraction = 0.5;
  const core::SimulationResult result = core::run_simulation(config, *w);
  ASSERT_GT(result.scanner.shootdowns_initiated, 0u);
  metrics::CoreCounters sum;
  for (const metrics::CoreCounters& c : result.per_core) sum += c;
  EXPECT_EQ(result.app_total.shootdowns_initiated, sum.shootdowns_initiated);
  EXPECT_EQ(result.app_total.evictions, sum.evictions);
  EXPECT_EQ(result.app_total.major_faults, sum.major_faults);
  EXPECT_EQ(result.app_total.accesses, sum.accesses);
}

TEST(Machine, TlbSizedForConfiguredPageSize) {
  MachineConfig config = small_config(1);
  config.page_size = PageSizeClass::k2M;
  Machine m(config);
  EXPECT_EQ(m.tlb(0).capacity(), tlb_entries(PageSizeClass::k2M));
}

}  // namespace
}  // namespace cmcp::sim
