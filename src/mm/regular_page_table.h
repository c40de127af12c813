// Traditional process model: one set of page tables shared by all cores of
// the address space.
//
// Each unit's entry is one flag byte (present/accessed/dirty) in a
// mm::UnitStore sized once at construction, so a walk is a single indexed
// load. Beside it the store keeps the unit's fill mask at runtime width
// (like Pspt's mapping masks): the cores whose TLB filled from the entry
// since the unit was mapped. The modelled kernel cannot see it — a
// shootdown still targets, and charges, every core of the space — but the
// simulator uses it to skip invalidating TLBs that cannot hold the unit
// (tlb_holders).
#pragma once

#include <cstdint>

#include "common/assert.h"
#include "mm/page_table.h"
#include "mm/unit_store.h"

namespace cmcp::mm {

class RegularPageTable final : public PageTable {
 public:
  /// The address space runs on cores [first_core, first_core + num_cores)
  /// and spans units [0, num_units).
  RegularPageTable(CoreId num_cores, CoreId first_core, UnitIdx num_units);

  PageTableKind kind() const override { return PageTableKind::kRegular; }

  bool has_mapping(CoreId /*core*/, UnitIdx unit) const override {
    return any_mapping(unit);
  }
  bool any_mapping(UnitIdx unit) const override {
    return units_.test(unit, UnitStore::kPresent);
  }
  void map(CoreId /*core*/, UnitIdx unit) override { units_.make_present(unit); }
  ShootdownSet unmap_all(UnitIdx unit) override;
  CoreMask mapping_cores(UnitIdx unit) const override {
    return any_mapping(unit) ? space_cores_ : CoreMask{};
  }
  CoreMask tlb_holders(UnitIdx unit) const override { return units_.mask(unit); }
  unsigned core_map_count(UnitIdx unit) const override {
    // The precise count is unobtainable; report the pessimistic bound.
    return any_mapping(unit) ? num_cores_ : 0;
  }

  void mark_accessed(CoreId core, UnitIdx unit) override;
  void mark_dirty(CoreId core, UnitIdx unit) override;
  bool test_accessed(UnitIdx unit, unsigned* pte_reads) const override {
    if (pte_reads != nullptr) *pte_reads = 1;
    return units_.test(unit, UnitStore::kAccessed);
  }
  bool clear_accessed(UnitIdx unit) override {
    return units_.clear_accessed(unit);
  }
  bool test_dirty(UnitIdx unit) const override {
    return units_.test(unit, UnitStore::kDirty);
  }
  std::uint64_t mapped_units() const override {
    return units_.present_units();
  }

  // --- test-only fault injection ------------------------------------------
  // Drops `core` from a mapped unit's fill mask the way a missed fill
  // record would, so SimCheck's tlb-consistency can be shown to catch a
  // cached entry outside tlb_holders(). Never called by product code.
  void corrupt_fill_clear_core_for_test(UnitIdx unit, CoreId core) {
    CMCP_CHECK_MSG(any_mapping(unit), "corrupting an unmapped unit");
    CMCP_CHECK(space_cores_.test(core));
    units_.remove_core(unit, core);
  }

 private:
  CoreId num_cores_;
  CoreMask space_cores_;  ///< the space's core block
  /// Per unit: the entry's flags and the fill mask over cores
  /// [0, first_core + num_cores).
  UnitStore units_;
};

}  // namespace cmcp::mm
