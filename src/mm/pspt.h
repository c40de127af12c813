// Per-core Partially Separated Page Tables (paper section 2.3, CCGrid'13).
//
// Each core owns a private set of PTEs for the computation area; a core maps
// a unit only when it actually touches it. A per-unit directory records the
// mapping-core mask, giving O(1) answers to the two questions regular tables
// cannot answer: "whose TLB can hold this translation?" (shootdown targeting)
// and "how many cores map this page?" (CMCP's priority signal).
//
// The model stores no private PTE. A core's PTE is valid exactly when its
// bit is in the unit's mapping mask, and the unit keeps one flag byte (a
// mm::UnitStore) that is the OR of its private PTEs' accessed and dirty
// bits. That OR is exact, not an approximation: a core sets bits only in
// its own PTE, and no operation clears one core's PTE alone —
// clear_accessed clears every PTE's accessed bit and unmap_all drops every
// PTE of the unit — so every reader, which asks only "is any bit set?", gets
// the answer per-core PTEs would give. The scanner's simulated cost still
// counts one private-PTE read per mapping core: test_accessed reports
// `pte_reads` as the mask's population, which equals core_map_count.
//
// Storage is dense and direct-indexed (docs/performance.md), sized once at
// construction: per unit a flag byte, the mask at runtime width and the
// count. No frame number is kept: the frame is stored once, in the resident
// page (mm::ResidentPage::pfn), so the PSPT coherence invariant (all private
// PTEs of a virtual page name the same frame) holds by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "mm/page_table.h"
#include "mm/unit_store.h"

namespace cmcp::mm {

class Pspt final : public PageTable {
 public:
  /// Private PTEs of cores [0, num_cores) for units [0, num_units).
  Pspt(CoreId num_cores, UnitIdx num_units);

  PageTableKind kind() const override { return PageTableKind::kPspt; }

  bool has_mapping(CoreId core, UnitIdx unit) const override;
  bool any_mapping(UnitIdx unit) const override {
    return units_.test(unit, UnitStore::kPresent);
  }
  void map(CoreId core, UnitIdx unit) override;
  ShootdownSet unmap_all(UnitIdx unit) override;
  CoreMask mapping_cores(UnitIdx unit) const override {
    return units_.mask(unit);
  }
  /// The mapping set: a core's TLB fills only from its own PTE.
  CoreMask tlb_holders(UnitIdx unit) const override {
    return mapping_cores(unit);
  }
  unsigned core_map_count(UnitIdx unit) const override {
    return unit < counts_.size() ? counts_[unit] : 0;
  }

  void mark_accessed(CoreId core, UnitIdx unit) override;
  void mark_dirty(CoreId core, UnitIdx unit) override;
  bool test_accessed(UnitIdx unit, unsigned* pte_reads) const override;
  bool clear_accessed(UnitIdx unit) override {
    return units_.clear_accessed(unit);
  }
  bool test_dirty(UnitIdx unit) const override {
    return units_.test(unit, UnitStore::kDirty);
  }
  std::uint64_t mapped_units() const override {
    return units_.present_units();
  }

  /// Per-core view, for tests and the Fig. 6 analysis.
  std::uint64_t mapped_units_of_core(CoreId core) const {
    return mapped_of_core_[core];
  }

  // --- test-only fault injection ------------------------------------------
  // SimCheck's checker-detects-the-bug coverage needs a way to corrupt the
  // directory the way a real accounting bug would (count drifting from the
  // mask, mask gaining a core that never mapped). Never called by product
  // code.
  void corrupt_count_for_test(UnitIdx unit, unsigned count);
  void corrupt_mask_add_core_for_test(UnitIdx unit, CoreId core);

 private:
  CoreId num_cores_;
  /// Per unit: the OR of the private PTEs' flags and the mapping mask.
  UnitStore units_;
  /// [unit] mapping cores, cached apart from the mask so CMCP's priority
  /// read is one load (SimCheck's core-map-count holds it to the mask).
  std::vector<unsigned> counts_;
  std::vector<std::uint64_t> mapped_of_core_;  ///< [core] valid PTE count
};

}  // namespace cmcp::mm
