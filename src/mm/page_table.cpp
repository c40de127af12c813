#include "mm/page_table.h"

namespace cmcp::mm {

PageTable::PageTable(PageTableKind kind, CoreId first_core, CoreId num_cores,
                     UnitIdx num_units)
    : kind_(kind),
      first_core_(first_core),
      num_cores_(num_cores),
      mask_words_((first_core + num_cores + 63u) / 64u),
      flags_(num_units, 0),
      masks_(static_cast<std::size_t>(num_units) * mask_words_, 0),
      counts_(kind == PageTableKind::kPspt ? num_units : 0, 0),
      mapped_of_core_(num_cores, 0) {
  CMCP_CHECK_MSG(num_cores > 0 && first_core + num_cores <= CoreMask::kMaxCores,
                 "a page table's core block must be a non-empty range of cores");
  for (CoreId c = first_core; c < first_core + num_cores; ++c)
    space_cores_.set(c);
}

void PageTable::map(CoreId core, UnitIdx unit) {
  CMCP_CHECK(in_space(core));
  CMCP_CHECK_MSG(unit < flags_.size(),
                 "map of a unit outside the table (kInvalidUnit?)");
  if ((flags_[unit] & kPresent) == 0) {
    flags_[unit] = kPresent;
    ++present_units_;
  }
  if (kind_ == PageTableKind::kRegular) return;
  CMCP_CHECK_MSG(!has_core(unit, core), "core already maps this unit");
  words(unit)[core >> 6] |= std::uint64_t{1} << (core & 63);
  ++counts_[unit];
  ++mapped_of_core_[core - first_core_];
}

ShootdownSet PageTable::unmap_all(UnitIdx unit) {
  CMCP_CHECK_MSG(test(unit, kPresent), "unmap of an unmapped unit");
  const CoreMask was = mask(unit);
  flags_[unit] = 0;
  std::uint64_t* w = words(unit);
  for (unsigned i = 0; i < mask_words_; ++i) w[i] = 0;
  --present_units_;
  // Regular: centralized book-keeping, so any core of the space may have
  // cached this translation.
  if (kind_ == PageTableKind::kRegular) return {space_cores_, was};
  was.for_each([&](CoreId core) { --mapped_of_core_[core - first_core_]; });
  counts_[unit] = 0;
  return {was, was};
}

void PageTable::check_corruptible(UnitIdx unit, CoreId core) const {
  CMCP_CHECK_MSG(any_mapping(unit), "corrupting an unmapped unit");
  CMCP_CHECK(in_space(core));
}

void PageTable::corrupt_count_for_test(UnitIdx unit, unsigned count) {
  CMCP_CHECK_MSG(kind_ == PageTableKind::kPspt,
                 "only PSPT keeps a core-map count");
  CMCP_CHECK_MSG(any_mapping(unit), "corrupting an unmapped unit");
  counts_[unit] = count;
}

void PageTable::corrupt_mask_add_core_for_test(UnitIdx unit, CoreId core) {
  check_corruptible(unit, core);
  words(unit)[core >> 6] |= std::uint64_t{1} << (core & 63);
}

void PageTable::corrupt_mask_remove_core_for_test(UnitIdx unit, CoreId core) {
  check_corruptible(unit, core);
  words(unit)[core >> 6] &= ~(std::uint64_t{1} << (core & 63));
}

}  // namespace cmcp::mm
