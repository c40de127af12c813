// One address space's index of its device-resident pages: unit -> the
// coremap entry (FrameAllocator) of the frame that holds it.
//
// The entries themselves live in the shared coremap and are pointer-stable,
// so policies can keep them on intrusive lists without extra allocation on
// the fault path. The index is a dense direct-indexed vector sized once
// from the area's unit count (docs/performance.md): find() is one load, and
// for_each — the scanner's and SimCheck's view of the resident set —
// iterates in ascending unit order, which makes every downstream tie-break
// independent of allocation order (docs/invariants.md).
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "mm/frame_allocator.h"

namespace cmcp::mm {

class PageRegistry {
 public:
  /// An empty index over units [0, num_units).
  explicit PageRegistry(UnitIdx num_units) : by_unit_(num_units, nullptr) {}

  /// Index a freshly allocated entry under its unit.
  void insert(ResidentPage& page) {
    CMCP_CHECK_MSG(page.unit < by_unit_.size(),
                   "insert of a unit outside the index (kInvalidUnit?)");
    CMCP_CHECK_MSG(by_unit_[page.unit] == nullptr, "unit already resident");
    by_unit_[page.unit] = &page;
    ++size_;
  }

  /// Drop a page on eviction, before its frame is freed or quarantined
  /// (either resets the entry's unit). The page must already be unlinked
  /// from every policy list.
  void erase(ResidentPage& page) {
    CMCP_CHECK_MSG(!page.main_node.linked() && !page.aux_node.linked(),
                   "evicting a page still on a policy list");
    CMCP_CHECK(page.unit < by_unit_.size() && by_unit_[page.unit] == &page);
    by_unit_[page.unit] = nullptr;
    --size_;
  }

  ResidentPage* find(UnitIdx unit) {
    return unit < by_unit_.size() ? by_unit_[unit] : nullptr;
  }
  const ResidentPage* find(UnitIdx unit) const {
    return unit < by_unit_.size() ? by_unit_[unit] : nullptr;
  }

  std::size_t size() const { return size_; }
  UnitIdx num_units() const { return by_unit_.size(); }

  /// Iterate all resident pages in ascending unit order (scanner); fn must
  /// not insert/erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (ResidentPage* page : by_unit_)
      if (page != nullptr) fn(*page);
  }

  /// Read-only iteration (SimCheck sweeps, exporters), ascending unit order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const ResidentPage* page : by_unit_)
      if (page != nullptr) fn(*page);
  }

 private:
  std::vector<ResidentPage*> by_unit_;  ///< [unit] -> coremap entry or null
  std::size_t size_ = 0;
};

}  // namespace cmcp::mm
