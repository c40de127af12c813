// Property tests: PSPT invariants under randomized operation sequences,
// checked against a reference model that keeps every core's private PTE.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mm/pspt.h"

namespace cmcp::mm {
namespace {

/// One flag byte per core per unit: the private PTEs as a per-core table
/// stores them. Pspt keeps only their OR per unit; every answer it gives
/// must equal the one read from here.
struct ReferenceModel {
  enum : std::uint8_t { kValid = 1u << 0, kAccessed = 1u << 1, kDirty = 1u << 2 };

  ReferenceModel(CoreId cores, UnitIdx units)
      : pte(cores, std::vector<std::uint8_t>(units, 0)) {}

  bool maps(CoreId core, UnitIdx unit) const {
    return (pte[core][unit] & kValid) != 0;
  }
  /// Private PTEs of `unit` the scanner reads: one per mapping core.
  unsigned mapping_cores(UnitIdx unit) const {
    unsigned n = 0;
    for (const auto& table : pte) n += (table[unit] & kValid) != 0 ? 1u : 0u;
    return n;
  }
  /// Whether any core's PTE of `unit` has `bit` set.
  bool any(UnitIdx unit, std::uint8_t bit) const {
    for (const auto& table : pte)
      if ((table[unit] & bit) != 0) return true;
    return false;
  }

  std::vector<std::vector<std::uint8_t>> pte;  ///< [core][unit]
};

class PsptPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsptPropertyTest, AgreesWithReferenceModelUnderRandomOps) {
  constexpr CoreId kCores = 16;
  constexpr UnitIdx kUnits = 64;
  Pspt pt(kCores, kUnits);
  ReferenceModel ref(kCores, kUnits);
  Rng rng(GetParam());

  for (int step = 0; step < 8000; ++step) {
    const UnitIdx unit = rng.next_below(kUnits);
    const CoreId core = static_cast<CoreId>(rng.next_below(kCores));
    switch (rng.next_below(5)) {
      case 0:  // map (if this core doesn't already)
        if (!ref.maps(core, unit)) {
          pt.map(core, unit);
          ref.pte[core][unit] = ReferenceModel::kValid;
        }
        break;
      case 1:  // unmap_all (if mapped)
        if (ref.mapping_cores(unit) > 0) {
          const CoreMask affected = pt.unmap_all(unit).targets;
          EXPECT_EQ(affected.count(), ref.mapping_cores(unit));
          for (CoreId c = 0; c < kCores; ++c) {
            EXPECT_EQ(affected.test(c), ref.maps(c, unit));
            ref.pte[c][unit] = 0;
          }
        }
        break;
      case 2:  // mark accessed (if this core maps it)
        if (ref.maps(core, unit)) {
          pt.mark_accessed(core, unit);
          ref.pte[core][unit] |= ReferenceModel::kAccessed;
        }
        break;
      case 3:  // clear accessed on every core's PTE
        EXPECT_EQ(pt.clear_accessed(unit),
                  ref.any(unit, ReferenceModel::kAccessed));
        for (auto& table : ref.pte)
          table[unit] &= static_cast<std::uint8_t>(~ReferenceModel::kAccessed);
        break;
      case 4:  // mark dirty (if this core maps it)
        if (ref.maps(core, unit)) {
          pt.mark_dirty(core, unit);
          ref.pte[core][unit] |= ReferenceModel::kDirty;
        }
        break;
    }

    // Every answer for the touched unit equals the per-core model's.
    const unsigned mapping = ref.mapping_cores(unit);
    EXPECT_EQ(pt.any_mapping(unit), mapping > 0);
    EXPECT_EQ(pt.core_map_count(unit), mapping);
    const CoreMask mask = pt.mapping_cores(unit);
    EXPECT_EQ(mask.count(), mapping);
    for (CoreId c = 0; c < kCores; ++c) {
      EXPECT_EQ(pt.has_mapping(c, unit), ref.maps(c, unit));
      EXPECT_EQ(mask.test(c), ref.maps(c, unit));
    }
    unsigned pte_reads = ~0u;
    EXPECT_EQ(pt.test_accessed(unit, &pte_reads),
              ref.any(unit, ReferenceModel::kAccessed));
    EXPECT_EQ(pte_reads, mapping);
    EXPECT_EQ(pt.test_dirty(unit), ref.any(unit, ReferenceModel::kDirty));
  }

  // Final global consistency sweep.
  std::uint64_t mapped = 0;
  for (UnitIdx u = 0; u < kUnits; ++u) {
    const bool any = ref.mapping_cores(u) > 0;
    if (any) ++mapped;
    EXPECT_EQ(pt.any_mapping(u), any);
  }
  EXPECT_EQ(pt.mapped_units(), mapped);
  for (CoreId c = 0; c < kCores; ++c) {
    std::uint64_t mine = 0;
    for (UnitIdx u = 0; u < kUnits; ++u) mine += ref.maps(c, u) ? 1u : 0u;
    EXPECT_EQ(pt.mapped_units_of_core(c), mine) << "core " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsptPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace cmcp::mm
