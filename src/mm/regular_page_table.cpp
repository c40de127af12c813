#include "mm/regular_page_table.h"

#include "common/assert.h"

namespace cmcp::mm {

RegularPageTable::RegularPageTable(CoreId num_cores, CoreId first_core,
                                   UnitIdx num_units)
    : num_cores_(num_cores), units_(num_units, first_core + num_cores) {
  CMCP_CHECK(num_cores > 0);
  for (CoreId c = first_core; c < first_core + num_cores; ++c)
    space_cores_.set(c);
}

ShootdownSet RegularPageTable::unmap_all(UnitIdx unit) {
  // Centralized book-keeping: any core of the space may have cached this
  // translation.
  return {space_cores_, units_.clear(unit)};
}

void RegularPageTable::mark_accessed(CoreId core, UnitIdx unit) {
  CMCP_CHECK(any_mapping(unit));
  CMCP_CHECK(space_cores_.test(core));
  units_.set(unit, UnitStore::kAccessed);
  units_.add_core(unit, core);
}

void RegularPageTable::mark_dirty(CoreId /*core*/, UnitIdx unit) {
  CMCP_CHECK(any_mapping(unit));
  units_.set(unit, UnitStore::kDirty);
}

}  // namespace cmcp::mm
