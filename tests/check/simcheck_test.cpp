// SimCheck framework tests: registry mechanics (strides, handlers,
// diagnostics) and checker-catches-the-bug coverage for the TLB (stale
// entries and entries outside a regular table's fill mask), frame table,
// policy accounting and clock monotonicity invariants. The PSPT
// corruption cases live in tests/mm/pspt_invariant_test.cpp.
#include "check/invariant_checkers.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "mm/page_table.h"
#include "sim/checker.h"

namespace cmcp::check {
namespace {

using sim::CheckPoint;
using sim::CheckRegistry;
using sim::CheckViolation;

/// Checker whose behaviour the test scripts: reports `violations` findings
/// per sweep and counts its invocations.
class ScriptedChecker final : public sim::Checker {
 public:
  explicit ScriptedChecker(unsigned violations = 0) : violations_(violations) {}

  std::string_view name() const override { return "scripted"; }

  void check(CheckPoint point, std::vector<CheckViolation>& out) override {
    ++calls_;
    last_point_ = point;
    for (unsigned i = 0; i < violations_; ++i)
      out.push_back({std::string(name()), "scripted-rule",
                     "violation " + std::to_string(i), 7, 3});
  }

  unsigned calls() const { return calls_; }
  CheckPoint last_point() const { return last_point_; }

 private:
  unsigned violations_;
  unsigned calls_ = 0;
  CheckPoint last_point_ = CheckPoint::kEndOfRun;
};

TEST(CheckRegistry, StrideThrottlesSweeps) {
  CheckRegistry registry;
  auto checker = std::make_unique<ScriptedChecker>();
  ScriptedChecker* raw = checker.get();
  registry.add(std::move(checker));
  registry.set_stride(CheckPoint::kAfterFault, 4);
  for (int i = 0; i < 8; ++i) registry.run(CheckPoint::kAfterFault);
  EXPECT_EQ(raw->calls(), 2u);  // sweeps at calls 4 and 8
  EXPECT_EQ(registry.sweeps(), 2u);
}

TEST(CheckRegistry, StrideZeroDisablesCheckpoint) {
  CheckRegistry registry;
  auto checker = std::make_unique<ScriptedChecker>();
  ScriptedChecker* raw = checker.get();
  registry.add(std::move(checker));
  registry.set_stride(CheckPoint::kAfterScan, 0);
  for (int i = 0; i < 5; ++i) registry.run(CheckPoint::kAfterScan);
  EXPECT_EQ(raw->calls(), 0u);
}

TEST(CheckRegistry, RunNowIgnoresStride) {
  CheckRegistry registry;
  auto checker = std::make_unique<ScriptedChecker>();
  ScriptedChecker* raw = checker.get();
  registry.add(std::move(checker));
  registry.set_stride(CheckPoint::kAfterFault, 1000);
  registry.run_now(CheckPoint::kAfterFault);
  EXPECT_EQ(raw->calls(), 1u);
  EXPECT_EQ(raw->last_point(), CheckPoint::kAfterFault);
}

TEST(CheckRegistry, ViolationsReachTheHandler) {
  CheckRegistry registry;
  registry.add(std::make_unique<ScriptedChecker>(2));
  std::vector<CheckViolation> captured;
  registry.set_handler(
      [&](const CheckViolation& v) { captured.push_back(v); });
  registry.run_now(CheckPoint::kEndOfRun);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].checker, "scripted");
  EXPECT_EQ(captured[0].invariant, "scripted-rule");
  EXPECT_EQ(captured[0].unit, 7u);
  EXPECT_EQ(captured[0].core, 3u);
  EXPECT_EQ(registry.violations(), 2u);
}

TEST(CheckRegistry, FormatViolationIncludesEventTail) {
  sim::trace::EventSink events;
  events.emit({sim::trace::EventKind::kMajorFault, 2, 100, 50, 9, 0, 0, 0});
  events.emit({sim::trace::EventKind::kEviction, 2, 160, 40, 4, 1, 2, 4096});
  const CheckViolation violation{"frame-table", "frame-aliased",
                                 "frame 4 is held twice", 4, 2};
  const std::string text = sim::format_violation(violation, &events);
  EXPECT_NE(text.find("frame-table"), std::string::npos);
  EXPECT_NE(text.find("frame-aliased"), std::string::npos);
  EXPECT_NE(text.find("unit      : 4"), std::string::npos);
  EXPECT_NE(text.find("major_fault"), std::string::npos);
  EXPECT_NE(text.find("eviction"), std::string::npos);
}

#if CMCP_SIMCHECK_ENABLED

/// Minimal scripted workload (mirrors the engine tests').
class ScriptedWorkload final : public wl::Workload {
 public:
  ScriptedWorkload(CoreId cores, std::uint64_t pages,
                   std::vector<std::vector<wl::Op>> scripts)
      : cores_(cores), pages_(pages) {
    for (auto& ops : scripts)
      scripts_.push_back(
          std::make_shared<const std::vector<wl::Op>>(std::move(ops)));
  }

  std::string_view name() const override { return "scripted"; }
  CoreId num_cores() const override { return cores_; }
  std::uint64_t footprint_base_pages() const override { return pages_; }
  std::unique_ptr<wl::AccessStream> make_stream(CoreId core) const override {
    return std::make_unique<wl::VectorStream>(scripts_[core]);
  }

 private:
  CoreId cores_;
  std::uint64_t pages_;
  std::vector<std::shared_ptr<const std::vector<wl::Op>>> scripts_;
};

TEST(SimCheck, HealthyConstrainedRunReportsNoViolations) {
  // Two cores share 32 pages under a 50% memory constraint: plenty of
  // evictions, shootdowns and minor faults for the sweeps to inspect.
  std::vector<wl::Op> script = {wl::Op::access(0, true, 32),
                                wl::Op::barrier(),
                                wl::Op::access(0, false, 32)};
  ScriptedWorkload w(2, 32, {script, script});
  core::SimulationConfig config;
  config.machine.num_cores = 2;
  config.policy.kind = PolicyKind::kCmcp;
  config.memory_fraction = 0.5;
  core::Simulation sim(config, w);
  ASSERT_NE(sim.check_registry(), nullptr);
  std::vector<CheckViolation> captured;
  sim.check_registry()->set_handler(
      [&](const CheckViolation& v) { captured.push_back(v); });
  // Sweep on every checkpoint, not just the strided subset.
  sim.check_registry()->set_stride(CheckPoint::kAfterFault, 1);
  sim.check_registry()->set_stride(CheckPoint::kAfterEviction, 1);
  sim.run();
  EXPECT_GT(sim.check_registry()->sweeps(), 0u);
  EXPECT_TRUE(captured.empty())
      << captured.size() << " violations, first: " << captured[0].checker
      << "/" << captured[0].invariant << ": " << captured[0].message;
}

TEST(SimCheck, ConfigFlagDisablesRegistry) {
  ScriptedWorkload w(1, 4, {{wl::Op::access(0, false, 4)}});
  core::SimulationConfig config;
  config.machine.num_cores = 1;
  config.simcheck = false;
  core::Simulation sim(config, w);
  EXPECT_EQ(sim.check_registry(), nullptr);
  sim.run();  // and the run must not touch checker machinery
}

TEST(SimCheck, TlbCheckerCatchesStaleEntry) {
  ScriptedWorkload w(1, 16, {{wl::Op::access(0, false, 8)}});
  core::SimulationConfig config;
  config.machine.num_cores = 1;
  core::Simulation sim(config, w);
  sim.run();
  // Inject a translation the page table never issued: core 0 caches a unit
  // of its area that was never touched — exactly what a missed shootdown
  // leaves. (The TLB's index covers the area, so the unit must lie in it.)
  sim.machine().tlb(0).insert(12);
  std::vector<CheckViolation> captured;
  sim.check_registry()->set_handler(
      [&](const CheckViolation& v) { captured.push_back(v); });
  sim.check_registry()->run_now(CheckPoint::kEndOfRun);
  ASSERT_FALSE(captured.empty());
  EXPECT_EQ(captured[0].checker, "tlb-consistency");
  EXPECT_EQ(captured[0].invariant, "stale-tlb-entry");
  EXPECT_EQ(captured[0].unit, 12u);
  EXPECT_EQ(captured[0].core, 0u);
}

TEST(SimCheck, TlbCheckerCatchesEntryOutsideHolders) {
  // Shootdowns drop TLB entries only on the table's holders of the unit,
  // so a cached entry on a core the regular table's fill mask lost would
  // survive the next unmap. Drop core 0 from the fill of a unit it caches.
  ScriptedWorkload w(2, 8, {{wl::Op::access(0, false, 8)},
                            {wl::Op::access(0, false, 8)}});
  core::SimulationConfig config;
  config.machine.num_cores = 2;
  config.pt_kind = PageTableKind::kRegular;
  core::Simulation sim(config, w);
  sim.run();
  std::vector<CheckViolation> captured;
  sim.check_registry()->set_handler(
      [&](const CheckViolation& v) { captured.push_back(v); });
  sim.check_registry()->run_now(CheckPoint::kEndOfRun);
  ASSERT_TRUE(captured.empty()) << captured[0].invariant;

  UnitIdx cached = kInvalidUnit;
  sim.machine().tlb(0).for_each_entry([&](UnitIdx u) { cached = u; });
  ASSERT_NE(cached, kInvalidUnit);
  mm::PageTable& regular =
      sim.memory_manager().space(0).mutable_page_table_for_test();
  ASSERT_EQ(regular.kind(), PageTableKind::kRegular);
  regular.corrupt_mask_remove_core_for_test(cached, 0);
  sim.check_registry()->run_now(CheckPoint::kEndOfRun);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].checker, "tlb-consistency");
  EXPECT_EQ(captured[0].invariant, "entry-outside-holders");
  EXPECT_EQ(captured[0].unit, cached);
  EXPECT_EQ(captured[0].core, 0u);
}

TEST(SimCheck, PolicyCheckerCatchesLyingPolicy) {
  // A custom policy that under-reports its tracked size: FIFO semantics but
  // tracked_pages() is always off by one once pages exist.
  class LyingFifo final : public policy::ReplacementPolicy {
   public:
    std::string_view name() const override { return "lying-fifo"; }
    void on_insert(mm::ResidentPage& page) override { list_.push_back(page); }
    mm::ResidentPage* pick_victim(CoreId, Cycles&) override {
      return list_.front();
    }
    void on_evict(mm::ResidentPage& page) override { list_.erase(page); }
    std::int64_t tracked_pages() const override {
      const auto n = static_cast<std::int64_t>(list_.size());
      return n > 0 ? n - 1 : 0;
    }

   private:
    IntrusiveList<mm::ResidentPage, &mm::ResidentPage::main_node> list_;
  };

  ScriptedWorkload w(1, 8, {{wl::Op::access(0, false, 8)}});
  core::SimulationConfig config;
  config.machine.num_cores = 1;
  config.custom_policy = [](policy::PolicyHost&) {
    return std::make_unique<LyingFifo>();
  };
  core::Simulation sim(config, w);
  std::vector<CheckViolation> captured;
  sim.check_registry()->set_handler(
      [&](const CheckViolation& v) { captured.push_back(v); });
  sim.run();
  ASSERT_FALSE(captured.empty());
  EXPECT_EQ(captured[0].checker, "policy-accounting");
  EXPECT_EQ(captured[0].invariant, "list-size-vs-resident");
}

TEST(SimCheck, ClockCheckerCatchesRegression) {
  ScriptedWorkload w(1, 4, {{wl::Op::access(0, false, 4)}});
  core::SimulationConfig config;
  config.machine.num_cores = 1;
  core::Simulation sim(config, w);
  sim.run();
  std::vector<CheckViolation> captured;
  sim.check_registry()->set_handler(
      [&](const CheckViolation& v) { captured.push_back(v); });
  // Baseline sweep records current clocks, then time runs backwards.
  sim.check_registry()->run_now(CheckPoint::kEndOfRun);
  EXPECT_TRUE(captured.empty());
  const Cycles now = sim.machine().clock(0);
  ASSERT_GT(now, 0u);
  sim.machine().set_clock(0, now - 1);
  sim.check_registry()->run_now(CheckPoint::kEndOfRun);
  ASSERT_FALSE(captured.empty());
  EXPECT_EQ(captured[0].checker, "clock-monotonic");
  EXPECT_EQ(captured[0].invariant, "clock-regression");
  EXPECT_EQ(captured[0].core, 0u);
}

TEST(SimCheck, QuarantineCheckerCatchesLeakedFrame) {
  // Each row corrupts the frame state of a finished constrained run behind
  // the recovery protocol's back — through the allocator, or the way an
  // accounting bug would — and the frame-table checker must report exactly
  // the named kinds. The run leaves all 8 frames resident in space 0.
  using Corrupt = std::function<void(core::Simulation&, mm::ResidentPage&)>;
  struct Row {
    const char* what;
    Corrupt corrupt;
    std::set<std::string> kinds;
  };
  const auto alloc = [](core::Simulation& sim) -> mm::FrameAllocator& {
    return sim.memory_manager().mutable_allocator_for_test();
  };
  // Free a resident page's frame behind its registry slot and hand it out
  // again: LIFO reuse gives the same entry back, now backing `unit`.
  const auto reallocate = [&](core::Simulation& sim, mm::ResidentPage& pg,
                              UnitIdx unit) {
    alloc(sim).free(pg);
    ASSERT_EQ(alloc(sim).allocate(0, unit), &pg);
  };
  const Row rows[] = {
      {"frame re-allocated to another unit",
       [&](core::Simulation& sim, mm::ResidentPage& pg) {
         reallocate(sim, pg, pg.unit + 1000);
       },
       {"frame-aliased"}},
      {"entry re-owned behind the counters",
       // The allocator refuses an owner past its owner count, so only an
       // accounting bug can name space 1 in this one-space run.
       [](core::Simulation&, mm::ResidentPage& pg) { pg.owner = 1; },
       {"wrong-owner", "ownership-crossfoot"}},
      {"resident frame quarantined",
       [&](core::Simulation& sim, mm::ResidentPage& pg) {
         alloc(sim).quarantine(pg);
       },
       {"resident-on-quarantined", "per-space-count", "in-use-vs-resident",
        "stale-partition-capacity"}},
      {"resident frame freed",
       [&](core::Simulation& sim, mm::ResidentPage& pg) {
         alloc(sim).free(pg);
       },
       {"wrong-owner", "per-space-count", "in-use-vs-resident"}},
      {"entry turned free behind the counters",
       [](core::Simulation&, mm::ResidentPage& pg) {
         pg.state = mm::FrameState::kFree;
       },
       {"free-crossfoot", "ownership-crossfoot", "wrong-owner"}},
      {"entry turned quarantined behind the counters",
       [](core::Simulation&, mm::ResidentPage& pg) {
         pg.state = mm::FrameState::kQuarantined;
       },
       {"quarantine-crossfoot", "ownership-crossfoot",
        "resident-on-quarantined"}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    std::vector<wl::Op> script = {wl::Op::access(0, false, 16)};
    ScriptedWorkload w(1, 16, {script});
    core::SimulationConfig config;
    config.machine.num_cores = 1;
    config.memory_fraction = 0.5;
    core::Simulation sim(config, w);
    sim.run();
    std::set<std::string> kinds;
    sim.check_registry()->set_handler([&](const CheckViolation& v) {
      if (v.checker == "frame-table") kinds.insert(v.invariant);
    });
    sim.check_registry()->run_now(CheckPoint::kEndOfRun);
    ASSERT_TRUE(kinds.empty());
    const mm::ResidentPage* last = nullptr;
    sim.memory_manager().space(0).registry().for_each(
        [&](const mm::ResidentPage& pg) { last = &pg; });
    ASSERT_NE(last, nullptr);
    // The registry hands out const pages; corrupting one is the point.
    row.corrupt(sim, const_cast<mm::ResidentPage&>(*last));
    sim.check_registry()->run_now(CheckPoint::kEndOfRun);
    EXPECT_EQ(kinds, row.kinds);
  }
}

TEST(SimCheck, HealthyFaultInjectedRunReportsNoViolations) {
  // Full fault mix under a tight memory constraint: the recovery protocol
  // (retries, quarantines, re-allocation) must leave every invariant —
  // including the frame-table checks — intact at every sweep.
  std::vector<wl::Op> script = {wl::Op::access(0, true, 32),
                                wl::Op::barrier(),
                                wl::Op::access(0, false, 32)};
  ScriptedWorkload w(2, 32, {script, script});
  core::SimulationConfig config;
  config.machine.num_cores = 2;
  config.policy.kind = PolicyKind::kCmcp;
  config.memory_fraction = 0.5;
  ASSERT_EQ(sim::FaultPlanConfig::parse(
                "seed=5,pcie=0.05,sticky=0.02,ack=0.05,poison=2,straggler=0.1",
                &config.faults),
            "");
  core::Simulation sim(config, w);
  std::vector<CheckViolation> captured;
  sim.check_registry()->set_handler(
      [&](const CheckViolation& v) { captured.push_back(v); });
  sim.check_registry()->set_stride(CheckPoint::kAfterFault, 1);
  sim.check_registry()->set_stride(CheckPoint::kAfterEviction, 1);
  sim.run();
  EXPECT_GT(sim.check_registry()->sweeps(), 0u);
  EXPECT_TRUE(captured.empty())
      << captured.size() << " violations, first: " << captured[0].checker
      << "/" << captured[0].invariant << ": " << captured[0].message;
}

TEST(SimCheck, DefaultSuiteRegistersFiveCheckers) {
  ScriptedWorkload w(1, 4, {{wl::Op::access(0, false, 4)}});
  core::SimulationConfig config;
  config.machine.num_cores = 1;
  core::Simulation sim(config, w);
  ASSERT_NE(sim.check_registry(), nullptr);
  EXPECT_EQ(sim.check_registry()->num_checkers(), 5u);
}

#endif  // CMCP_SIMCHECK_ENABLED

}  // namespace
}  // namespace cmcp::check
