// Property tests: both page table kinds under randomized operation
// sequences, each checked against a reference model that stores the PTEs the
// way its organization does — PSPT every core's private PTE, a regular table
// one shared entry plus the cores that filled their TLB from it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mm/page_table.h"

namespace cmcp::mm {
namespace {

enum : std::uint8_t { kValid = 1u << 0, kAccessed = 1u << 1, kDirty = 1u << 2 };

/// The space's cores are [kFirst, kFirst + kCores) of the machine: a
/// tenant's block, so core ids and mask bits do not start at zero.
constexpr CoreId kFirst = 5;
constexpr CoreId kCores = 16;
constexpr UnitIdx kUnits = 64;

/// One flag byte per core per unit: the private PTEs as a per-core table
/// stores them. PSPT keeps only their OR per unit; every answer it gives
/// must equal the one read from here.
struct PsptReference {
  static constexpr PageTableKind kKind = PageTableKind::kPspt;

  PsptReference() : pte(kFirst + kCores, std::vector<std::uint8_t>(kUnits, 0)) {}

  bool maps(CoreId core, UnitIdx unit) const {
    return (pte[core][unit] & kValid) != 0;
  }
  bool may_map(CoreId core, UnitIdx unit) const { return !maps(core, unit); }
  void map(CoreId core, UnitIdx unit) { pte[core][unit] = kValid; }
  void unmap(UnitIdx unit) {
    for (auto& table : pte) table[unit] = 0;
  }
  void set(CoreId core, UnitIdx unit, std::uint8_t bit) { pte[core][unit] |= bit; }
  void clear_accessed(UnitIdx unit) {
    for (auto& table : pte)
      table[unit] &= static_cast<std::uint8_t>(~kAccessed);
  }

  /// Whether any core's PTE of `unit` has `bit` set.
  bool any(UnitIdx unit, std::uint8_t bit) const {
    for (const auto& table : pte)
      if ((table[unit] & bit) != 0) return true;
    return false;
  }
  CoreMask mapping_cores(UnitIdx unit) const {
    CoreMask m;
    for (CoreId c = 0; c < pte.size(); ++c)
      if (maps(c, unit)) m.set(c);
    return m;
  }
  /// A core's TLB fills only from its own PTE.
  CoreMask tlb_holders(UnitIdx unit) const { return mapping_cores(unit); }
  unsigned core_map_count(UnitIdx unit) const {
    return mapping_cores(unit).count();
  }
  /// Private PTEs of `unit` the scanner reads: one per mapping core.
  unsigned pte_reads(UnitIdx unit) const { return core_map_count(unit); }
  std::uint64_t mapped_of_core(CoreId core) const {
    std::uint64_t n = 0;
    for (UnitIdx u = 0; u < kUnits; ++u) n += maps(core, u) ? 1u : 0u;
    return n;
  }

  std::vector<std::vector<std::uint8_t>> pte;  ///< [core][unit]
};

/// One shared entry per unit, reached by every core of the space, and the
/// cores that walked it into their TLB since it was mapped.
struct RegularReference {
  static constexpr PageTableKind kKind = PageTableKind::kRegular;

  RegularReference() : entry(kUnits, 0), fills(kUnits) {}

  bool maps(CoreId /*core*/, UnitIdx unit) const {
    return (entry[unit] & kValid) != 0;
  }
  /// Mapping a present shared entry again changes nothing.
  bool may_map(CoreId /*core*/, UnitIdx /*unit*/) const { return true; }
  void map(CoreId /*core*/, UnitIdx unit) { entry[unit] |= kValid; }
  void unmap(UnitIdx unit) {
    entry[unit] = 0;
    fills[unit] = CoreMask{};
  }
  void set(CoreId core, UnitIdx unit, std::uint8_t bit) {
    entry[unit] |= bit;
    if (bit == kAccessed) fills[unit].set(core);
  }
  void clear_accessed(UnitIdx unit) {
    entry[unit] &= static_cast<std::uint8_t>(~kAccessed);
  }

  bool any(UnitIdx unit, std::uint8_t bit) const {
    return (entry[unit] & bit) != 0;
  }
  /// The kernel cannot tell who cached the entry: the whole core block.
  CoreMask mapping_cores(UnitIdx unit) const {
    CoreMask m;
    if (maps(0, unit))
      for (CoreId c = kFirst; c < kFirst + kCores; ++c) m.set(c);
    return m;
  }
  CoreMask tlb_holders(UnitIdx unit) const { return fills[unit]; }
  unsigned core_map_count(UnitIdx unit) const {
    return maps(0, unit) ? kCores : 0;
  }
  unsigned pte_reads(UnitIdx /*unit*/) const { return 1; }
  std::uint64_t mapped_of_core(CoreId /*core*/) const { return 0; }

  std::vector<std::uint8_t> entry;  ///< [unit] the shared PTE
  std::vector<CoreMask> fills;      ///< [unit] cores that filled their TLB
};

/// Units the reference maps from any core.
template <typename Reference>
std::uint64_t mapped_units(const Reference& ref) {
  std::uint64_t n = 0;
  for (UnitIdx u = 0; u < kUnits; ++u) n += ref.any(u, kValid) ? 1u : 0u;
  return n;
}

template <typename Reference>
void agrees_with_reference_under_random_ops(std::uint64_t seed) {
  PageTable pt(Reference::kKind, kFirst, kCores, kUnits);
  Reference ref;
  Rng rng(seed);

  for (int step = 0; step < 8000; ++step) {
    const UnitIdx unit = rng.next_below(kUnits);
    const CoreId core = kFirst + static_cast<CoreId>(rng.next_below(kCores));
    switch (rng.next_below(5)) {
      case 0:  // map (if the kind allows this core to)
        if (ref.may_map(core, unit)) {
          pt.map(core, unit);
          ref.map(core, unit);
        }
        break;
      case 1:  // unmap_all (if mapped)
        if (pt.any_mapping(unit)) {
          const ShootdownSet set = pt.unmap_all(unit);
          EXPECT_EQ(set.targets, ref.mapping_cores(unit));
          EXPECT_EQ(set.holders, ref.tlb_holders(unit));
          ref.unmap(unit);
        }
        break;
      case 2:  // mark accessed (if this core's walk hits)
        if (ref.maps(core, unit)) {
          pt.mark_accessed(core, unit);
          ref.set(core, unit, kAccessed);
        }
        break;
      case 3:  // clear accessed on every PTE of the unit
        EXPECT_EQ(pt.clear_accessed(unit), ref.any(unit, kAccessed));
        ref.clear_accessed(unit);
        break;
      case 4:  // mark dirty (if this core's walk hits)
        if (ref.maps(core, unit)) {
          pt.mark_dirty(core, unit);
          ref.set(core, unit, kDirty);
        }
        break;
    }

    // Every answer for the touched unit equals the reference's.
    EXPECT_EQ(pt.any_mapping(unit), ref.any(unit, kValid));
    EXPECT_EQ(pt.core_map_count(unit), ref.core_map_count(unit));
    EXPECT_EQ(pt.mapping_cores(unit), ref.mapping_cores(unit));
    EXPECT_EQ(pt.tlb_holders(unit), ref.tlb_holders(unit));
    for (CoreId c = kFirst; c < kFirst + kCores; ++c)
      EXPECT_EQ(pt.has_mapping(c, unit), ref.maps(c, unit)) << "core " << c;
    unsigned pte_reads = ~0u;
    EXPECT_EQ(pt.test_accessed(unit, &pte_reads), ref.any(unit, kAccessed));
    EXPECT_EQ(pte_reads, ref.pte_reads(unit));
    EXPECT_EQ(pt.test_dirty(unit), ref.any(unit, kDirty));
    EXPECT_EQ(pt.mapped_units(), mapped_units(ref));
  }

  // Final global consistency sweep.
  for (UnitIdx u = 0; u < kUnits; ++u)
    EXPECT_EQ(pt.any_mapping(u), ref.any(u, kValid)) << "unit " << u;
  for (CoreId c = 0; c < kFirst + kCores + 2; ++c) {
    const bool own = c >= kFirst && c < kFirst + kCores;
    EXPECT_EQ(pt.mapped_units_of_core(c), own ? ref.mapped_of_core(c) : 0u)
        << "core " << c;
  }
}

class PsptPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsptPropertyTest, AgreesWithReferenceModelUnderRandomOps) {
  agrees_with_reference_under_random_ops<PsptReference>(GetParam());
}

class RegularPageTablePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegularPageTablePropertyTest, AgreesWithReferenceModelUnderRandomOps) {
  agrees_with_reference_under_random_ops<RegularReference>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsptPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));
INSTANTIATE_TEST_SUITE_P(Seeds, RegularPageTablePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace cmcp::mm
