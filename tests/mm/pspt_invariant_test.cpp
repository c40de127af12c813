// SimCheck catches deliberately injected PSPT corruption (the satellite
// "checker detects the bug" coverage): the core-map count and mapping mask
// are corrupted through PageTable's test-only hooks — the way a real
// accounting bug would drift them — and the pspt-consistency checker must
// localize the damage to the right unit.
#include "mm/page_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "check/invariant_checkers.h"
#include "core/memory_manager.h"
#include "sim/checker.h"

namespace cmcp::mm {
namespace {

using sim::CheckPoint;
using sim::CheckViolation;

struct Fixture {
  explicit Fixture(std::uint64_t capacity = 16, CoreId cores = 4)
      : machine([&] {
          sim::MachineConfig mc;
          mc.num_cores = cores;
          return mc;
        }()),
        area(0, 64, PageSizeClass::k4K),
        mm(machine, {{area, [&] {
                        core::MemoryManagerConfig config;
                        config.pt_kind = PageTableKind::kPspt;
                        config.policy.kind = PolicyKind::kCmcp;
                        return config;
                      }(),
                      0, cores}},
           capacity, PartitionKind::kNone) {
    check::register_default_checkers(registry, mm, machine);
    registry.set_handler(
        [this](const CheckViolation& v) { captured.push_back(v); });
    mm.set_check_registry(&registry);
  }

  void touch(CoreId core, Vpn vpn) {
    machine.advance(core, mm.access(core, vpn, false, machine.clock(core)));
  }

  PageTable& pspt() {
    PageTable& table = mm.space(0).mutable_page_table_for_test();
    CMCP_CHECK(table.kind() == PageTableKind::kPspt);
    return table;
  }

  /// Violations from `checker` only (tests assert on the primary finding).
  std::vector<CheckViolation> from(std::string_view checker) const {
    std::vector<CheckViolation> out;
    for (const CheckViolation& v : captured)
      if (v.checker == checker) out.push_back(v);
    return out;
  }

  sim::Machine machine;
  ComputationArea area;
  core::MemoryManager mm;
  sim::CheckRegistry registry;
  std::vector<CheckViolation> captured;
};

#if CMCP_SIMCHECK_ENABLED

TEST(PsptInvariant, CleanStateSweepsClean) {
  Fixture f;
  for (CoreId c = 0; c < 4; ++c)
    for (Vpn v = 0; v < 8; ++v) f.touch(c, v);
  f.registry.run_now(CheckPoint::kEndOfRun);
  EXPECT_GT(f.registry.sweeps(), 0u);
  EXPECT_TRUE(f.captured.empty())
      << f.captured[0].checker << "/" << f.captured[0].invariant << ": "
      << f.captured[0].message;
}

TEST(PsptInvariant, CorruptedCountIsReportedWithUnit) {
  Fixture f;
  f.touch(0, 3);
  f.touch(1, 3);  // unit 3 mapped by two cores
  f.pspt().corrupt_count_for_test(3, 7);
  f.registry.run_now(CheckPoint::kEndOfRun);
  const auto violations = f.from("pspt-consistency");
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const CheckViolation& v : violations) {
    if (v.invariant != "core-map-count") continue;
    found = true;
    EXPECT_EQ(v.unit, 3u);
    EXPECT_NE(v.message.find('7'), std::string::npos);
  }
  EXPECT_TRUE(found) << "no core-map-count violation among "
                     << violations.size();
}

TEST(PsptInvariant, CorruptedCountTripsTheCachedCountCrossCheck) {
  // The directory's count caches the population of the per-core PTEs and
  // is what the policy ranks on; when it drifts, the cross-foot against the
  // per-core PTE populations must flag it too.
  Fixture f;
  f.touch(0, 5);
  f.pspt().corrupt_count_for_test(5, 3);
  f.registry.run_now(CheckPoint::kEndOfRun);
  bool crossfoot = false;
  for (const CheckViolation& v : f.from("pspt-consistency"))
    if (v.invariant == "count-crossfoot") crossfoot = true;
  EXPECT_TRUE(crossfoot);
}

TEST(PsptInvariant, MaskGainingCoreWithoutPteIsReported) {
  // The mask is the private PTEs' valid bits; a core gained without a map
  // leaves the cached count behind, so the directory disagrees with it.
  Fixture f;
  f.touch(0, 2);
  f.pspt().corrupt_mask_add_core_for_test(2, /*core=*/3);
  f.registry.run_now(CheckPoint::kEndOfRun);
  bool found = false;
  for (const CheckViolation& v : f.from("pspt-consistency")) {
    if (v.invariant != "core-map-count") continue;
    found = true;
    EXPECT_EQ(v.unit, 2u);
    EXPECT_NE(v.message.find("population 2"), std::string::npos) << v.message;
  }
  EXPECT_TRUE(found);
}

TEST(PsptInvariant, MaskNamingATableLessCoreIsReportedWithoutReadingPastIt) {
  // A corrupted mask naming a core that never mapped a unit of this space
  // is reported, and reading the unit's state touches only the unit's own
  // slots (the asan-ubsan preset turns any read out of bounds into a
  // failure).
  Fixture f(/*capacity=*/16, /*cores=*/56);
  f.touch(0, 2);
  ASSERT_EQ(f.pspt().mapped_units_of_core(40), 0u);
  f.pspt().corrupt_mask_add_core_for_test(2, /*core=*/40);
  f.registry.run_now(CheckPoint::kEndOfRun);
  bool found = false;
  for (const CheckViolation& v : f.from("pspt-consistency")) {
    if (v.invariant != "core-map-count") continue;
    found = true;
    EXPECT_EQ(v.unit, 2u);
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(f.pspt().has_mapping(40, 2));
  EXPECT_FALSE(f.pspt().test_dirty(2));
  EXPECT_EQ(f.pspt().mapped_units_of_core(40), 0u);
}

TEST(PsptInvariant, CheckpointSweepFiresDuringFaults) {
  // The memory manager itself must invoke the registry on its fault path
  // (stride 1 so the very first fault sweeps).
  Fixture f;
  f.registry.set_stride(CheckPoint::kAfterFault, 1);
  f.touch(0, 0);
  EXPECT_GT(f.registry.sweeps(), 0u);
  EXPECT_TRUE(f.captured.empty());
}

TEST(PsptInvariant, CorruptionCaughtAtTheNextCheckpoint) {
  // End-to-end: corrupt, then let the ordinary fault path (not a manual
  // sweep) surface the violation.
  Fixture f;
  f.registry.set_stride(CheckPoint::kAfterFault, 1);
  f.touch(0, 1);
  ASSERT_TRUE(f.captured.empty());
  f.pspt().corrupt_count_for_test(1, 9);
  f.touch(0, 8);  // unrelated fault; the sweep still scans all units
  EXPECT_FALSE(f.from("pspt-consistency").empty());
}

#else

TEST(PsptInvariant, CompiledOut) {
  GTEST_SKIP() << "CMCP_SIMCHECK=OFF: invariant checkpoints compiled out";
}

#endif  // CMCP_SIMCHECK_ENABLED

}  // namespace
}  // namespace cmcp::mm
