#include "mm/pspt.h"

#include "common/assert.h"

namespace cmcp::mm {

Pspt::Pspt(CoreId num_cores)
    : num_cores_(num_cores),
      mask_words_((num_cores + 63u) / 64u),
      tables_(num_cores),
      mapped_of_core_(num_cores, 0) {}

void Pspt::reserve_units(UnitIdx n) {
  if (n <= directory_.size()) return;
  directory_.resize(n);
  masks_.resize(static_cast<std::size_t>(n) * mask_words_, 0);
  for (auto& table : tables_)
    if (!table.empty()) table.resize(n, 0);
}

void Pspt::ensure_unit(UnitIdx unit) {
  if (unit >= directory_.size()) {
    CMCP_CHECK_MSG(unit != kInvalidUnit, "map of kInvalidUnit");
    reserve_units(unit + 1);
  }
}

bool Pspt::has_mapping(CoreId core, UnitIdx unit) const {
  CMCP_CHECK(core < num_cores_);
  return (flags(core, unit) & kValid) != 0;
}

bool Pspt::any_mapping(UnitIdx unit) const {
  return unit < directory_.size() && directory_[unit].present;
}

void Pspt::map(CoreId core, UnitIdx unit) {
  CMCP_CHECK(core < num_cores_);
  ensure_unit(unit);
  auto& table = tables_[core];
  if (table.empty()) table.resize(directory_.size(), 0);  // first map
  std::uint8_t& pte = table[unit];
  CMCP_CHECK_MSG((pte & kValid) == 0, "core already maps this unit");
  UnitInfo& info = directory_[unit];
  if (!info.present) {
    info.present = true;
    ++mapped_units_;
  }
  std::uint64_t& word = mask_of(unit)[core >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (core & 63);
  CMCP_CHECK((word & bit) == 0);
  pte = kValid;
  word |= bit;
  ++info.count;
  ++mapped_of_core_[core];
}

ShootdownSet Pspt::unmap_all(UnitIdx unit) {
  CMCP_CHECK_MSG(unit < directory_.size() && directory_[unit].present,
                 "unmap of an unmapped unit");
  for_each_mapping(unit, [&](CoreId core) {
    CMCP_CHECK((flags(core, unit) & kValid) != 0);
    tables_[core][unit] = 0;
    --mapped_of_core_[core];
  });
  std::uint64_t* w = mask_of(unit);
  const CoreMask affected = CoreMask::from_words(w, mask_words_);
  for (unsigned i = 0; i < mask_words_; ++i) w[i] = 0;
  directory_[unit] = UnitInfo{};
  --mapped_units_;
  return {affected, affected};
}

CoreMask Pspt::mapping_cores(UnitIdx unit) const {
  return unit < directory_.size()
             ? CoreMask::from_words(mask_of(unit), mask_words_)
             : CoreMask{};
}

unsigned Pspt::core_map_count(UnitIdx unit) const {
  return unit < directory_.size() ? directory_[unit].count : 0;
}

void Pspt::mark_accessed(CoreId core, UnitIdx unit) {
  CMCP_CHECK(core < num_cores_);
  auto& table = tables_[core];
  CMCP_CHECK(unit < table.size() && (table[unit] & kValid) != 0);
  table[unit] |= kAccessed;
}

void Pspt::mark_dirty(CoreId core, UnitIdx unit) {
  CMCP_CHECK(core < num_cores_);
  auto& table = tables_[core];
  CMCP_CHECK(unit < table.size() && (table[unit] & kValid) != 0);
  table[unit] |= kDirty;
}

bool Pspt::test_accessed(UnitIdx unit, unsigned* pte_reads) const {
  if (unit >= directory_.size() || !directory_[unit].present) {
    if (pte_reads != nullptr) *pte_reads = 0;
    return false;
  }
  // The scanner must consult every mapping core's private PTE.
  unsigned reads = 0;
  bool accessed = false;
  for_each_mapping(unit, [&](CoreId core) {
    ++reads;
    const std::uint8_t pte = flags(core, unit);
    CMCP_CHECK((pte & kValid) != 0);
    if ((pte & kAccessed) != 0) accessed = true;
  });
  if (pte_reads != nullptr) *pte_reads = reads;
  return accessed;
}

bool Pspt::clear_accessed(UnitIdx unit) {
  if (unit >= directory_.size() || !directory_[unit].present) return false;
  bool was = false;
  for_each_mapping(unit, [&](CoreId core) {
    const std::uint8_t pte = flags(core, unit);
    CMCP_CHECK((pte & kValid) != 0);
    was = was || (pte & kAccessed) != 0;
    tables_[core][unit] = static_cast<std::uint8_t>(pte & ~kAccessed);
  });
  return was;
}

bool Pspt::test_dirty(UnitIdx unit) const {
  if (unit >= directory_.size() || !directory_[unit].present) return false;
  bool dirty = false;
  for_each_mapping(unit, [&](CoreId core) {
    if ((flags(core, unit) & kDirty) != 0) dirty = true;
  });
  return dirty;
}

void Pspt::corrupt_count_for_test(UnitIdx unit, unsigned count) {
  CMCP_CHECK_MSG(unit < directory_.size() && directory_[unit].present,
                 "corrupting an unmapped unit");
  directory_[unit].count = count;
}

void Pspt::corrupt_mask_add_core_for_test(UnitIdx unit, CoreId core) {
  CMCP_CHECK_MSG(unit < directory_.size() && directory_[unit].present,
                 "corrupting an unmapped unit");
  CMCP_CHECK(core < num_cores_);
  mask_of(unit)[core >> 6] |= std::uint64_t{1} << (core & 63);
}

}  // namespace cmcp::mm
