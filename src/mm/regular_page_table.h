// Traditional process model: one set of page tables shared by all cores.
//
// Entries live in a dense direct-indexed vector (the unit index is the
// slot; docs/performance.md) — an entry is one byte of present/accessed/dirty
// flag bits, so a walk is a single indexed load.
#pragma once

#include <cstdint>
#include <vector>

#include "mm/page_table.h"

namespace cmcp::mm {

class RegularPageTable final : public PageTable {
 public:
  explicit RegularPageTable(CoreId num_cores);

  PageTableKind kind() const override { return PageTableKind::kRegular; }

  bool has_mapping(CoreId core, UnitIdx unit) const override;
  bool any_mapping(UnitIdx unit) const override;
  void map(CoreId core, UnitIdx unit) override;
  CoreMask unmap_all(UnitIdx unit) override;
  CoreMask mapping_cores(UnitIdx unit) const override;
  unsigned core_map_count(UnitIdx unit) const override;

  void mark_accessed(CoreId core, UnitIdx unit) override;
  void mark_dirty(CoreId core, UnitIdx unit) override;
  bool test_accessed(UnitIdx unit, unsigned* pte_reads) const override;
  bool clear_accessed(UnitIdx unit) override;
  bool test_dirty(UnitIdx unit) const override;
  std::uint64_t mapped_units() const override { return mapped_; }

  void reserve_units(UnitIdx n) override;

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

  CoreId num_cores_;
  CoreMask all_cores_;
  std::vector<std::uint8_t> entries_;  ///< [unit] EntryFlags
  std::uint64_t mapped_ = 0;
};

}  // namespace cmcp::mm
