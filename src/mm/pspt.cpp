#include "mm/pspt.h"

#include "common/assert.h"

namespace cmcp::mm {

Pspt::Pspt(CoreId num_cores, UnitIdx num_units)
    : num_cores_(num_cores),
      units_(num_units, num_cores),
      counts_(num_units, 0),
      mapped_of_core_(num_cores, 0) {}

bool Pspt::has_mapping(CoreId core, UnitIdx unit) const {
  CMCP_CHECK(core < num_cores_);
  return units_.has_core(unit, core);
}

void Pspt::map(CoreId core, UnitIdx unit) {
  CMCP_CHECK(core < num_cores_);
  units_.make_present(unit);
  CMCP_CHECK_MSG(!units_.has_core(unit, core), "core already maps this unit");
  units_.add_core(unit, core);
  ++counts_[unit];
  ++mapped_of_core_[core];
}

ShootdownSet Pspt::unmap_all(UnitIdx unit) {
  const CoreMask affected = units_.clear(unit);
  affected.for_each([&](CoreId core) { --mapped_of_core_[core]; });
  counts_[unit] = 0;
  return {affected, affected};
}

void Pspt::mark_accessed(CoreId core, UnitIdx unit) {
  CMCP_CHECK(has_mapping(core, unit));
  units_.set(unit, UnitStore::kAccessed);
}

void Pspt::mark_dirty(CoreId core, UnitIdx unit) {
  CMCP_CHECK(has_mapping(core, unit));
  units_.set(unit, UnitStore::kDirty);
}

bool Pspt::test_accessed(UnitIdx unit, unsigned* pte_reads) const {
  // The modelled scanner reads every mapping core's private PTE.
  if (pte_reads != nullptr) *pte_reads = units_.core_count(unit);
  return units_.test(unit, UnitStore::kAccessed);
}

void Pspt::corrupt_count_for_test(UnitIdx unit, unsigned count) {
  CMCP_CHECK_MSG(any_mapping(unit), "corrupting an unmapped unit");
  counts_[unit] = count;
}

void Pspt::corrupt_mask_add_core_for_test(UnitIdx unit, CoreId core) {
  CMCP_CHECK_MSG(any_mapping(unit), "corrupting an unmapped unit");
  CMCP_CHECK(core < num_cores_);
  units_.add_core(unit, core);
}

}  // namespace cmcp::mm
