// Property tests: PSPT invariants under randomized operation sequences,
// checked against a reference model.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "mm/pspt.h"

namespace cmcp::mm {
namespace {

struct ReferenceModel {
  // unit -> (set of mapping cores, accessed cores, dirty cores)
  struct Unit {
    std::set<CoreId> cores;
    std::set<CoreId> accessed;
    std::set<CoreId> dirty;
  };
  std::map<UnitIdx, Unit> units;
};

class PsptPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsptPropertyTest, AgreesWithReferenceModelUnderRandomOps) {
  constexpr CoreId kCores = 16;
  constexpr UnitIdx kUnits = 64;
  Pspt pt(kCores);
  ReferenceModel ref;
  Rng rng(GetParam());

  for (int step = 0; step < 8000; ++step) {
    const UnitIdx unit = rng.next_below(kUnits);
    const CoreId core = static_cast<CoreId>(rng.next_below(kCores));
    switch (rng.next_below(5)) {
      case 0: {  // map (if this core doesn't already)
        auto it = ref.units.find(unit);
        if (it == ref.units.end() || !it->second.cores.contains(core)) {
          pt.map(core, unit);
          ref.units[unit].cores.insert(core);
        }
        break;
      }
      case 1: {  // unmap_all (if mapped)
        auto it = ref.units.find(unit);
        if (it != ref.units.end()) {
          const CoreMask affected = pt.unmap_all(unit).targets;
          EXPECT_EQ(affected.count(), it->second.cores.size());
          for (CoreId c : it->second.cores) EXPECT_TRUE(affected.test(c));
          ref.units.erase(it);
        }
        break;
      }
      case 2: {  // mark accessed (if this core maps it)
        auto it = ref.units.find(unit);
        if (it != ref.units.end() && it->second.cores.contains(core)) {
          pt.mark_accessed(core, unit);
          it->second.accessed.insert(core);
        }
        break;
      }
      case 3: {  // clear accessed
        auto it = ref.units.find(unit);
        const bool expect_was = it != ref.units.end() && !it->second.accessed.empty();
        EXPECT_EQ(pt.clear_accessed(unit), expect_was);
        if (it != ref.units.end()) it->second.accessed.clear();
        break;
      }
      case 4: {  // mark dirty
        auto it = ref.units.find(unit);
        if (it != ref.units.end() && it->second.cores.contains(core)) {
          pt.mark_dirty(core, unit);
          it->second.dirty.insert(core);
        }
        break;
      }
    }

    // Invariants after every step (spot-check the touched unit).
    auto it = ref.units.find(unit);
    if (it == ref.units.end()) {
      EXPECT_FALSE(pt.any_mapping(unit));
      EXPECT_EQ(pt.core_map_count(unit), 0u);
    } else {
      EXPECT_TRUE(pt.any_mapping(unit));
      // Core-map count == exact number of mapping cores.
      EXPECT_EQ(pt.core_map_count(unit), it->second.cores.size());
      const CoreMask mask = pt.mapping_cores(unit);
      EXPECT_EQ(mask.count(), it->second.cores.size());
      for (CoreId c = 0; c < kCores; ++c) {
        EXPECT_EQ(pt.has_mapping(c, unit), it->second.cores.contains(c));
        EXPECT_EQ(mask.test(c), it->second.cores.contains(c));
      }
      EXPECT_EQ(pt.test_accessed(unit, nullptr), !it->second.accessed.empty());
      EXPECT_EQ(pt.test_dirty(unit), !it->second.dirty.empty());
    }
  }

  // Final global consistency sweep.
  std::uint64_t mapped = 0;
  for (UnitIdx u = 0; u < kUnits; ++u) {
    if (ref.units.contains(u)) ++mapped;
    EXPECT_EQ(pt.any_mapping(u), ref.units.contains(u));
  }
  EXPECT_EQ(pt.mapped_units(), mapped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsptPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace cmcp::mm
