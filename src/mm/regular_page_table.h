// Traditional process model: one set of page tables shared by all cores of
// the address space.
//
// Entries live in a dense direct-indexed vector (the unit index is the
// slot; docs/performance.md) — an entry is one byte of present/accessed/dirty
// flag bits, so a walk is a single indexed load.
//
// Beside the entries the table keeps a per-unit fill mask at runtime width
// (ceil(cores/64) words per unit, like Pspt's mapping masks): the cores
// whose TLB filled from the entry since the unit was mapped. The modelled
// kernel cannot see it — a shootdown still targets, and charges, every core
// of the space — but the simulator uses it to skip invalidating TLBs that
// cannot hold the unit (tlb_holders).
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "mm/page_table.h"

namespace cmcp::mm {

class RegularPageTable final : public PageTable {
 public:
  /// The address space runs on cores [first_core, first_core + num_cores).
  explicit RegularPageTable(CoreId num_cores, CoreId first_core = 0);

  PageTableKind kind() const override { return PageTableKind::kRegular; }

  bool has_mapping(CoreId core, UnitIdx unit) const override;
  bool any_mapping(UnitIdx unit) const override;
  void map(CoreId core, UnitIdx unit) override;
  ShootdownSet unmap_all(UnitIdx unit) override;
  CoreMask mapping_cores(UnitIdx unit) const override;
  CoreMask tlb_holders(UnitIdx unit) const override;
  unsigned core_map_count(UnitIdx unit) const override;

  void mark_accessed(CoreId core, UnitIdx unit) override;
  void mark_dirty(CoreId core, UnitIdx unit) override;
  bool test_accessed(UnitIdx unit, unsigned* pte_reads) const override;
  bool clear_accessed(UnitIdx unit) override;
  bool test_dirty(UnitIdx unit) const override;
  std::uint64_t mapped_units() const override { return mapped_; }

  void reserve_units(UnitIdx n) override;

  // --- test-only fault injection ------------------------------------------
  // Drops `core` from a mapped unit's fill mask the way a missed fill
  // record would, so SimCheck's tlb-consistency can be shown to catch a
  // cached entry outside tlb_holders(). Never called by product code.
  void corrupt_fill_clear_core_for_test(UnitIdx unit, CoreId core) {
    CMCP_CHECK_MSG(entry(unit) != nullptr, "corrupting an unmapped unit");
    CMCP_CHECK(space_cores_.test(core));
    fill_of(unit)[core >> 6] &= ~(std::uint64_t{1} << (core & 63));
  }

 private:
  enum EntryFlags : std::uint8_t {
    kPresent = 1u << 0,
    kAccessed = 1u << 1,
    kDirty = 1u << 2,
  };

  /// The entry of a present unit, or nullptr. An entry is a flag byte: the
  /// frame lives in the resident page (mm::ResidentPage::pfn).
  std::uint8_t* entry(UnitIdx unit) {
    return unit < entries_.size() && (entries_[unit] & kPresent) != 0
               ? &entries_[unit]
               : nullptr;
  }
  const std::uint8_t* entry(UnitIdx unit) const {
    return const_cast<RegularPageTable*>(this)->entry(unit);
  }

  std::uint64_t* fill_of(UnitIdx unit) {
    return &fills_[static_cast<std::size_t>(unit) * mask_words_];
  }
  const std::uint64_t* fill_of(UnitIdx unit) const {
    return &fills_[static_cast<std::size_t>(unit) * mask_words_];
  }

  CoreId num_cores_;
  unsigned mask_words_;   ///< ceil((first core + num_cores_) / 64)
  CoreMask space_cores_;  ///< the space's core block
  std::vector<std::uint8_t> entries_;  ///< [unit] EntryFlags
  std::vector<std::uint64_t> fills_;   ///< [unit * mask_words_] fill mask
  std::uint64_t mapped_ = 0;
};

}  // namespace cmcp::mm
