// Registry of device-resident pages plus the per-page metadata replacement
// policies hang their bookkeeping on.
//
// ResidentPage objects live in fixed-size contiguous chunks and are
// pointer-stable for their residency lifetime, so policies can keep them on
// intrusive lists without extra allocation on the fault path. The unit ->
// page index is a dense direct-indexed vector (docs/performance.md): find()
// is one load, and for_each — the scanner's and SimCheck's view of the
// resident set — iterates in ascending unit order, which makes every
// downstream tie-break independent of hash-table layout
// (docs/invariants.md).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/intrusive_list.h"
#include "common/types.h"

namespace cmcp::mm {

struct ResidentPage {
  UnitIdx unit = kInvalidUnit;
  /// The device frame backing the unit: its only copy (the page tables keep
  /// none; the coremap entry names the unit back).
  Pfn pfn = kInvalidPfn;
  /// For prefetched pages: when the PCIe transfer lands. A touch before
  /// this time stalls until the data arrives. 0 for demand-fetched pages.
  Cycles ready_at = 0;

  // --- policy-owned state -------------------------------------------------
  ListNode main_node;  ///< FIFO list / LRU active+inactive / CMCP bucket
  ListNode aux_node;   ///< CMCP aging list; unused by other policies
  std::uint8_t where = 0;       ///< policy-defined location tag
  std::uint32_t bucket = 0;     ///< CMCP priority bucket / LFU frequency
  std::uint64_t age_stamp = 0;  ///< CMCP aging timestamp
  std::uint32_t slot = 0;       ///< RANDOM policy index
  bool referenced = false;      ///< scanner-fed reference info
};

class PageRegistry {
 public:
  PageRegistry() = default;

  /// Create metadata for a unit becoming resident in frame pfn. Reuses the
  /// most recently erased page (LIFO) before carving a new one.
  ResidentPage& insert(UnitIdx unit, Pfn pfn);

  /// Remove metadata on eviction. The page must already be unlinked from
  /// every policy list.
  void erase(ResidentPage& page);

  ResidentPage* find(UnitIdx unit) {
    return unit < by_unit_.size() ? by_unit_[unit] : nullptr;
  }
  const ResidentPage* find(UnitIdx unit) const {
    return unit < by_unit_.size() ? by_unit_[unit] : nullptr;
  }

  std::size_t size() const { return size_; }

  /// Size the index for units [0, n) so steady-state insert() never grows
  /// it (the memory manager calls this with the area's num_units()).
  void reserve_units(UnitIdx n) {
    if (n > by_unit_.size()) by_unit_.resize(n, nullptr);
  }

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
  static constexpr std::size_t kChunkPages = 1024;  ///< 80 KiB per chunk

  std::vector<ResidentPage*> by_unit_;  ///< [unit] -> resident page or null
  std::size_t size_ = 0;
  /// Page storage: chunks never move or shrink, so a page's address is
  /// stable for the registry's lifetime. Only the last chunk has unused
  /// pages, from `chunk_used_` on.
  std::vector<std::unique_ptr<ResidentPage[]>> chunks_;
  std::size_t chunk_used_ = kChunkPages;
  std::vector<ResidentPage*> free_;  ///< erased pages, reused LIFO
};

}  // namespace cmcp::mm
