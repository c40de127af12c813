// Device-RAM frame allocator for the computation area.
//
// The memory constraint of the experiments is expressed here: the allocator
// is created with `capacity` frames of one mapping unit each — e.g. 37% of
// cg.B's footprint — and the host side is treated as an infinite backing
// store reached over PCIe.
//
// The allocator is a coremap: one ResidentPage per device frame, indexed by
// frame, holding the frame's state, the address space charged for it, the
// unit it backs and the replacement policy's per-page state. It is the only
// record of a resident page: multi-tenant runs share one allocator between
// address spaces, each space's PageRegistry indexes its own units into it,
// and partition policies read the per-tenant counts kept beside it. The
// LIFO free list is threaded through the free entries.
//
// Entries are built the first time their frame is handed out: the coremap's
// storage is reserved once (so entries never move) but only touched as the
// run allocates, which keeps construction cheap for large capacities.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/intrusive_list.h"
#include "common/types.h"

namespace cmcp::mm {

enum class FrameState : std::uint8_t {
  kFree,
  kResident,
  /// Retired (ECC poison): neither free nor in use for the rest of the run.
  kQuarantined,
};

/// Coremap entry: one device frame and, while it is resident, the page it
/// holds. The frame number is the entry's slot (FrameAllocator::pfn_of).
/// Fields are ordered so the entry packs into 72 bytes.
struct ResidentPage {
  /// kResident: the unit this frame backs. kFree: the slot of the next
  /// free frame (the end of the list is kInvalidUnit).
  UnitIdx unit = kInvalidUnit;
  /// kResident: the address space the frame is charged to.
  Asid owner = kInvalidAsid;
  FrameState state = FrameState::kFree;

  // --- policy-owned state (reset whenever the frame is handed out) --------
  std::uint8_t where = 0;       ///< policy-defined location tag
  bool referenced = false;      ///< scanner-fed reference info
  /// For prefetched pages: when the PCIe transfer lands. A touch before
  /// this time stalls until the data arrives. 0 for demand-fetched pages.
  Cycles ready_at = 0;
  ListNode main_node{};         ///< FIFO list / LRU active+inactive / CMCP bucket
  ListNode aux_node{};          ///< CMCP aging list; unused by other policies
  std::uint64_t age_stamp = 0;  ///< CMCP aging timestamp
  std::uint32_t bucket = 0;     ///< CMCP priority bucket / LFU frequency
  std::uint32_t slot = 0;       ///< RANDOM policy index
};
static_assert(sizeof(ResidentPage) == 72);

class FrameAllocator {
 public:
  /// `capacity` frames charged to owners [0, owners); for 64 kB units frame
  /// numbers are multiples of 16 so the Phi alignment rule (paper section 4)
  /// holds by construction.
  FrameAllocator(std::uint64_t capacity, PageSizeClass size, Asid owners);
  /// Registries and policy lists hold pointers into the coremap, so it is
  /// neither copied nor moved.
  FrameAllocator(const FrameAllocator&) = delete;
  FrameAllocator& operator=(const FrameAllocator&) = delete;

  /// The frame's entry, charged to `owner`, backing `unit` and with every
  /// other field reset; nullptr when the device memory is exhausted (the
  /// caller must evict first). Frames are handed out in ascending order
  /// until each has been used once, then freed frames are reused LIFO.
  ResidentPage* allocate(Asid owner, UnitIdx unit);

  /// Return a resident frame to the free list, resetting its entry.
  void free(ResidentPage& page);

  /// Retire a resident frame (ECC poison): it is uncharged from its owner
  /// and its entry reset, but it never returns to the free list, shrinking
  /// usable capacity for the rest of the run.
  void quarantine(ResidentPage& page);

  /// The frame number of an entry of this coremap.
  Pfn pfn_of(const ResidentPage& page) const {
    return slot_of(page) * frames_per_unit_;
  }

  std::uint64_t quarantined_count() const { return quarantined_count_; }
  /// Frames the allocator can still serve: capacity minus the quarantine
  /// list. FramePartition targets are recomputed against this after every
  /// quarantine (core::MemoryManager::on_frames_quarantined).
  std::uint64_t usable_capacity() const {
    return capacity() - quarantined_count_;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t in_use() const {
    return capacity() - free_count_ - quarantined_count_;
  }
  /// Free frames, counting the ones never handed out.
  std::uint64_t free_count() const { return free_count_; }
  bool full() const { return free_count_ == 0; }

  std::uint64_t frames_per_unit() const { return frames_per_unit_; }

  /// Frames currently charged to `owner`. Cheap: a counter, not a scan.
  std::uint64_t in_use_by(Asid owner) const {
    return owner < in_use_by_.size() ? in_use_by_[owner] : 0;
  }

  /// The built coremap, indexed by pfn / frames_per_unit(). Frames past
  /// its end have never been handed out and are free.
  std::span<const ResidentPage> frames() const { return frames_; }

 private:
  /// Coremap slot of `page`; aborts when `page` is no entry of this
  /// coremap.
  std::uint64_t slot_of(const ResidentPage& page) const;
  /// Uncharge a resident frame from its owner.
  void uncharge(const ResidentPage& page);

  std::uint64_t frames_per_unit_;
  std::uint64_t capacity_;
  /// The coremap, [pfn / frames_per_unit_]: reserved for `capacity_`
  /// entries, built in ascending order as frames are first handed out.
  std::vector<ResidentPage> frames_;
  UnitIdx free_head_ = kInvalidUnit;  ///< top of the LIFO free list
  std::uint64_t free_count_;
  std::uint64_t quarantined_count_ = 0;
  /// [owner] allocated-frame counts, sized once to the owner count.
  std::vector<std::uint64_t> in_use_by_;
};

}  // namespace cmcp::mm
