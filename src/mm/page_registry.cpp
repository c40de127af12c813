#include "mm/page_registry.h"

#include "common/assert.h"

namespace cmcp::mm {

ResidentPage& PageRegistry::insert(UnitIdx unit, Pfn pfn) {
  ResidentPage* page;
  if (!free_.empty()) {
    page = free_.back();
    free_.pop_back();
  } else {
    if (chunk_used_ == kChunkPages) {
      chunks_.push_back(std::make_unique<ResidentPage[]>(kChunkPages));
      chunk_used_ = 0;
    }
    page = &chunks_.back()[chunk_used_++];
  }
  *page = ResidentPage{};  // reset all metadata and policy state
  page->unit = unit;
  page->pfn = pfn;
  if (unit >= by_unit_.size()) {
    CMCP_CHECK_MSG(unit != kInvalidUnit, "insert of kInvalidUnit");
    reserve_units(unit + 1);
  }
  CMCP_CHECK_MSG(by_unit_[unit] == nullptr, "unit already resident");
  by_unit_[unit] = page;
  ++size_;
  return *page;
}

void PageRegistry::erase(ResidentPage& page) {
  CMCP_CHECK_MSG(!page.main_node.linked() && !page.aux_node.linked(),
                 "evicting a page still on a policy list");
  CMCP_CHECK(page.unit < by_unit_.size() && by_unit_[page.unit] == &page);
  by_unit_[page.unit] = nullptr;
  --size_;
  free_.push_back(&page);
}

}  // namespace cmcp::mm
