// Page tables over the computation area (paper section 2.3).
//
// The paper's two organizations differ in one fact: who a PTE reaches.
//  * Regular (PageTableKind::kRegular) — one shared set of translations: a
//    PTE reaches every core of the address space at once. The kernel cannot
//    tell which cores cached it, so an unmap must shoot down the space's
//    whole core block, and the core-map count is unobtainable.
//  * PSPT (PageTableKind::kPspt, CCGrid'13) — per-core private PTEs for the
//    computation area: a PTE reaches only the core that mapped it, and a
//    core maps a unit only when it touches it. Unmaps target exactly the
//    mapping cores, and the number of mapping cores per unit is available
//    as auxiliary knowledge — the input to CMCP.
//
// One class models both. The kind decides only what that fact decides —
// has_mapping, map, unmap_all's targets, mapping_cores, core_map_count and
// test_accessed's pte_reads — each a one-line choice.
//
// Storage is dense and direct-indexed (docs/performance.md), sized once at
// construction from the area's unit count: per unit a flag byte (present,
// accessed, dirty — what the OS reads) and a core mask at runtime width
// (ceil((first_core + num_cores) / 64) words, widened to a CoreMask only at
// the API boundary). map() of a unit outside the table aborts, and every
// reader answers "absent" for one.
//
// Regular: the flag byte is the one shared entry, and the mask is its fill
// set — the cores whose TLB filled from the entry (mark_accessed) since the
// unit was mapped. The modelled kernel cannot see it (a shootdown still
// targets, and charges, every core of the space), but the simulator uses it
// to skip invalidating TLBs that cannot hold the unit (tlb_holders).
//
// PSPT: the model stores no private PTE. A core's PTE is valid exactly when
// its bit is in the unit's mapping mask, and the flag byte is the OR of the
// private PTEs' accessed and dirty bits. That OR is exact, not an
// approximation: a core sets bits only in its own PTE, and no operation
// clears one core's PTE alone — clear_accessed clears every PTE's accessed
// bit and unmap_all drops every PTE of the unit — so every reader, which
// asks only "is any bit set?", gets the answer per-core PTEs would give. The
// scanner's simulated cost still counts one private-PTE read per mapping
// core. Beside the mask PSPT keeps each unit's count, so CMCP's priority
// read is one load, and each core's valid-PTE count, which SimCheck's
// count-crossfoot holds the counts to.
//
// No frame number is kept: the frame is stored once, as the resident page's
// coremap slot (FrameAllocator::pfn_of), so the PSPT coherence invariant
// (all private PTEs of a virtual page name the same frame) holds by
// construction.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/core_mask.h"
#include "common/types.h"

namespace cmcp::mm {

/// The cores one unit's shootdown reaches.
struct ShootdownSet {
  /// Cores the kernel must interrupt. Each one is charged the IPI, the
  /// interrupt and INVLPG whether or not its TLB holds the unit.
  CoreMask targets;
  /// The cores whose TLB may cache the unit (PageTable::tlb_holders).
  /// Host-side only: the simulator calls Tlb::invalidate on the targets in
  /// this set and skips the rest, where it would find nothing.
  CoreMask holders;
};

class PageTable {
 public:
  /// The address space runs on cores [first_core, first_core + num_cores)
  /// and spans units [0, num_units).
  PageTable(PageTableKind kind, CoreId first_core, CoreId num_cores,
            UnitIdx num_units);

  PageTableKind kind() const { return kind_; }

  /// Is `unit` translated from `core`'s point of view (its walk would hit)?
  /// `core` must be one of the space's.
  bool has_mapping(CoreId core, UnitIdx unit) const {
    CMCP_CHECK(in_space(core));
    return kind_ == PageTableKind::kPspt ? has_core(unit, core)
                                         : any_mapping(unit);
  }

  /// Is `unit` mapped by at least one core (i.e. resident and reachable)?
  bool any_mapping(UnitIdx unit) const { return test(unit, kPresent); }

  /// Install a translation for `core`. Regular: the shared entry, visible to
  /// every core of the space at once (mapping a present unit again changes
  /// nothing). PSPT: `core`'s private PTE. The device frame is the resident
  /// page's; the table does not keep a copy.
  void map(CoreId core, UnitIdx unit);

  /// Remove the translation on every core; returns the cores that must be
  /// shot down (mapping_cores) and those whose TLB may hold it
  /// (tlb_holders), both as they were before the unmap.
  ShootdownSet unmap_all(UnitIdx unit);

  /// Cores a shootdown of `unit` must target: the cores the kernel knows
  /// may cache it (regular: the space's core block; PSPT: the mapping set).
  CoreMask mapping_cores(UnitIdx unit) const {
    if (kind_ == PageTableKind::kPspt) return mask(unit);
    return any_mapping(unit) ? space_cores_ : CoreMask{};
  }

  /// Cores whose TLB may hold `unit`: a superset of the cores that do,
  /// which SimCheck's tlb-consistency holds it to. The unit's mask under
  /// both kinds — PSPT: the mapping set (a core's TLB fills only from its
  /// own PTE); regular: the fill set. A simulator-side fact the modelled
  /// kernel does not have, so it changes no simulated cost.
  CoreMask tlb_holders(UnitIdx unit) const { return mask(unit); }

  /// Number of cores mapping `unit`. Only PSPT can answer precisely; the
  /// regular table pessimistically reports the space's core count (paper:
  /// the information "cannot be obtained from regular page tables").
  unsigned core_map_count(UnitIdx unit) const {
    if (kind_ == PageTableKind::kPspt)
      return unit < counts_.size() ? counts_[unit] : 0;
    return any_mapping(unit) ? num_cores_ : 0;
  }

  // --- hardware-set attribute bits ---------------------------------------
  /// Set by `core`'s page walk; every TLB fill goes through it, so it also
  /// records `core` in the unit's mask (under PSPT the mapping mask holds it
  /// already: the walk read the core's own PTE).
  void mark_accessed(CoreId core, UnitIdx unit) {
    CMCP_CHECK(has_mapping(core, unit));
    flags_[unit] |= kAccessed;
    words(unit)[core >> 6] |= std::uint64_t{1} << (core & 63);
  }
  void mark_dirty(CoreId core, UnitIdx unit) {
    CMCP_CHECK(has_mapping(core, unit));
    flags_[unit] |= kDirty;
  }

  /// True if any PTE (any core, any sub-entry) has the accessed bit set.
  /// `pte_reads` (optional) receives the number of PTE words the OS had to
  /// inspect: one per mapping core under PSPT, the one shared entry under a
  /// regular table (the caller scales by the 64 kB group's sub-entries).
  bool test_accessed(UnitIdx unit, unsigned* pte_reads) const {
    if (pte_reads != nullptr)
      *pte_reads = kind_ == PageTableKind::kPspt ? population(unit) : 1;
    return test(unit, kAccessed);
  }

  /// Clear the accessed bit(s). Returns whether any was set. Clearing makes
  /// the cached TLB copies stale, so the caller MUST follow with a shootdown
  /// of mapping_cores() — the invariant the paper's whole argument rests on.
  bool clear_accessed(UnitIdx unit) {
    if (!test(unit, kAccessed)) return false;
    flags_[unit] &= static_cast<std::uint8_t>(~kAccessed);
    return true;
  }

  bool test_dirty(UnitIdx unit) const { return test(unit, kDirty); }

  /// Resident units currently mapped (for scanner iteration).
  std::uint64_t mapped_units() const { return present_units_; }

  /// PSPT: the valid private PTEs of `core`. 0 for a core outside the
  /// space and under a regular table, which keeps no per-core PTEs.
  std::uint64_t mapped_units_of_core(CoreId core) const {
    return in_space(core) ? mapped_of_core_[core - first_core_] : 0;
  }

  // --- test-only fault injection ------------------------------------------
  // SimCheck's checker-detects-the-bug coverage needs a way to corrupt the
  // table the way a real accounting bug would: a PSPT count drifting from
  // its mask, a mask gaining a core that never mapped, a fill record
  // missed. Never called by product code.
  void corrupt_count_for_test(UnitIdx unit, unsigned count);
  void corrupt_mask_add_core_for_test(UnitIdx unit, CoreId core);
  void corrupt_mask_remove_core_for_test(UnitIdx unit, CoreId core);

 private:
  enum Flag : std::uint8_t {
    kPresent = 1u << 0,
    kAccessed = 1u << 1,
    kDirty = 1u << 2,
  };

  bool in_space(CoreId core) const { return core - first_core_ < num_cores_; }
  bool test(UnitIdx unit, Flag flag) const {
    return unit < flags_.size() && (flags_[unit] & flag) != 0;
  }
  bool has_core(UnitIdx unit, CoreId core) const {
    return unit < flags_.size() && ((words(unit)[core >> 6] >> (core & 63)) & 1);
  }
  CoreMask mask(UnitIdx unit) const {
    return unit < flags_.size() ? CoreMask::from_words(words(unit), mask_words_)
                                : CoreMask{};
  }
  /// The mask's population; 0 for a unit outside the table.
  unsigned population(UnitIdx unit) const {
    if (unit >= flags_.size()) return 0;
    const std::uint64_t* w = words(unit);
    unsigned n = 0;
    for (unsigned i = 0; i < mask_words_; ++i)
      n += static_cast<unsigned>(std::popcount(w[i]));
    return n;
  }
  std::uint64_t* words(UnitIdx unit) {
    return &masks_[static_cast<std::size_t>(unit) * mask_words_];
  }
  const std::uint64_t* words(UnitIdx unit) const {
    return &masks_[static_cast<std::size_t>(unit) * mask_words_];
  }
  /// Check that `unit` is mapped and `core` is one of the space's.
  void check_corruptible(UnitIdx unit, CoreId core) const;

  PageTableKind kind_;
  CoreId first_core_;
  CoreId num_cores_;
  CoreMask space_cores_;  ///< the space's core block
  unsigned mask_words_;   ///< ceil((first_core + num_cores) / 64)
  std::vector<std::uint8_t> flags_;   ///< [unit] Flag bits
  std::vector<std::uint64_t> masks_;  ///< [unit * mask_words_] core mask
  std::uint64_t present_units_ = 0;
  /// PSPT only (empty under a regular table): [unit] mapping cores, cached
  /// apart from the mask so CMCP's priority read is one load (SimCheck's
  /// core-map-count holds it to the mask).
  std::vector<unsigned> counts_;
  /// [core - first_core] valid private PTEs; stays 0 under a regular table.
  std::vector<std::uint64_t> mapped_of_core_;
};

}  // namespace cmcp::mm
