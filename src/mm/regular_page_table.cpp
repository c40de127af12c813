#include "mm/regular_page_table.h"

#include "common/assert.h"

namespace cmcp::mm {

RegularPageTable::RegularPageTable(CoreId num_cores)
    : num_cores_(num_cores), all_cores_(CoreMask::first_n(num_cores)) {}

void RegularPageTable::reserve_units(UnitIdx n) {
  if (n > entries_.size()) entries_.resize(n, 0);
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

CoreMask RegularPageTable::unmap_all(UnitIdx unit) {
  std::uint8_t* e = entry(unit);
  CMCP_CHECK_MSG(e != nullptr, "unmap of an unmapped unit");
  *e = 0;
  --mapped_;
  // Centralized book-keeping: any core may have cached this translation.
  return all_cores_;
}

CoreMask RegularPageTable::mapping_cores(UnitIdx unit) const {
  return entry(unit) != nullptr ? all_cores_ : CoreMask{};
}

unsigned RegularPageTable::core_map_count(UnitIdx unit) const {
  // The precise count is unobtainable; report the pessimistic bound.
  return entry(unit) != nullptr ? num_cores_ : 0;
}

void RegularPageTable::mark_accessed(CoreId /*core*/, UnitIdx unit) {
  std::uint8_t* e = entry(unit);
  CMCP_CHECK(e != nullptr);
  *e |= kAccessed;
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
