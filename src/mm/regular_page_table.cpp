#include "mm/regular_page_table.h"

#include "common/assert.h"

namespace cmcp::mm {

RegularPageTable::RegularPageTable(CoreId num_cores, CoreId first_core)
    : num_cores_(num_cores), mask_words_((first_core + num_cores + 63u) / 64u) {
  CMCP_CHECK(num_cores > 0);
  for (CoreId c = first_core; c < first_core + num_cores; ++c)
    space_cores_.set(c);
}

void RegularPageTable::reserve_units(UnitIdx n) {
  if (n <= entries_.size()) return;
  entries_.resize(n, 0);
  fills_.resize(static_cast<std::size_t>(n) * mask_words_, 0);
}

bool RegularPageTable::has_mapping(CoreId /*core*/, UnitIdx unit) const {
  return entry(unit) != nullptr;
}

bool RegularPageTable::any_mapping(UnitIdx unit) const {
  return entry(unit) != nullptr;
}

void RegularPageTable::map(CoreId /*core*/, UnitIdx unit) {
  if (unit >= entries_.size()) {
    CMCP_CHECK_MSG(unit != kInvalidUnit, "map of kInvalidUnit");
    reserve_units(unit + 1);
  }
  std::uint8_t& e = entries_[unit];
  if ((e & kPresent) == 0) {
    e = kPresent;
    ++mapped_;
  }
}

ShootdownSet RegularPageTable::unmap_all(UnitIdx unit) {
  std::uint8_t* e = entry(unit);
  CMCP_CHECK_MSG(e != nullptr, "unmap of an unmapped unit");
  // Centralized book-keeping: any core of the space may have cached this
  // translation.
  const ShootdownSet set{space_cores_, tlb_holders(unit)};
  *e = 0;
  --mapped_;
  std::uint64_t* fill = fill_of(unit);
  for (unsigned i = 0; i < mask_words_; ++i) fill[i] = 0;
  return set;
}

CoreMask RegularPageTable::mapping_cores(UnitIdx unit) const {
  return entry(unit) != nullptr ? space_cores_ : CoreMask{};
}

CoreMask RegularPageTable::tlb_holders(UnitIdx unit) const {
  return entry(unit) != nullptr ? CoreMask::from_words(fill_of(unit), mask_words_)
                                : CoreMask{};
}

unsigned RegularPageTable::core_map_count(UnitIdx unit) const {
  // The precise count is unobtainable; report the pessimistic bound.
  return entry(unit) != nullptr ? num_cores_ : 0;
}

void RegularPageTable::mark_accessed(CoreId core, UnitIdx unit) {
  std::uint8_t* e = entry(unit);
  CMCP_CHECK(e != nullptr);
  CMCP_CHECK(space_cores_.test(core));
  *e |= kAccessed;
  fill_of(unit)[core >> 6] |= std::uint64_t{1} << (core & 63);
}

void RegularPageTable::mark_dirty(CoreId /*core*/, UnitIdx unit) {
  std::uint8_t* e = entry(unit);
  CMCP_CHECK(e != nullptr);
  *e |= kDirty;
}

bool RegularPageTable::test_accessed(UnitIdx unit, unsigned* pte_reads) const {
  if (pte_reads != nullptr) *pte_reads = 1;
  const std::uint8_t* e = entry(unit);
  return e != nullptr && (*e & kAccessed) != 0;
}

bool RegularPageTable::clear_accessed(UnitIdx unit) {
  std::uint8_t* e = entry(unit);
  if (e == nullptr) return false;
  const bool was = (*e & kAccessed) != 0;
  *e &= static_cast<std::uint8_t>(~kAccessed);
  return was;
}

bool RegularPageTable::test_dirty(UnitIdx unit) const {
  const std::uint8_t* e = entry(unit);
  return e != nullptr && (*e & kDirty) != 0;
}

}  // namespace cmcp::mm
