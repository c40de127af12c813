// Device-RAM frame allocator for the computation area.
//
// The memory constraint of the experiments is expressed here: the allocator
// is created with `capacity` frames of one mapping unit each — e.g. 37% of
// cg.B's footprint — and the host side is treated as an infinite backing
// store reached over PCIe.
//
// The allocator is a coremap: one entry per device frame holding the frame's
// state, the address space charged for it and the unit it backs. It is the
// only record of frame ownership and state; multi-tenant runs share one
// allocator between address spaces, and partition policies read the
// per-tenant counts kept beside it. The LIFO free list is threaded through
// the free entries, so the allocator holds a single per-frame vector.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace cmcp::mm {

enum class FrameState : std::uint8_t {
  kFree,
  kResident,
  /// Retired (ECC poison): neither free nor in use for the rest of the run.
  kQuarantined,
};

/// Coremap entry.
struct Frame {
  /// kResident: the unit this frame backs. kFree: the slot of the next
  /// free frame (the end of the list is kInvalidUnit).
  UnitIdx unit = kInvalidUnit;
  /// kResident: the address space the frame is charged to.
  Asid owner = kInvalidAsid;
  FrameState state = FrameState::kFree;
};

class FrameAllocator {
 public:
  /// `capacity` frames; for 64 kB units frame numbers are multiples of 16 so
  /// the Phi alignment rule (paper section 4) holds by construction.
  FrameAllocator(std::uint64_t capacity, PageSizeClass size);

  /// Returns kInvalidPfn when the device memory is exhausted (the caller
  /// must evict first). The frame is charged to `owner` and backs `unit`.
  Pfn allocate(Asid owner, UnitIdx unit);

  void free(Pfn pfn);

  /// Retire an allocated frame (ECC poison): it is uncharged from its owner
  /// but never returns to the free list, shrinking usable capacity for the
  /// rest of the run.
  void quarantine(Pfn pfn);

  bool is_quarantined(Pfn pfn) const {
    return frames_[slot_of(pfn)].state == FrameState::kQuarantined;
  }
  std::uint64_t quarantined_count() const { return quarantined_count_; }
  /// Frames the allocator can still serve: capacity minus the quarantine
  /// list. FramePartition targets are recomputed against this after every
  /// quarantine (core::MemoryManager::on_frames_quarantined).
  std::uint64_t usable_capacity() const {
    return capacity() - quarantined_count_;
  }

  std::uint64_t capacity() const { return frames_.size(); }
  std::uint64_t in_use() const {
    return capacity() - free_count_ - quarantined_count_;
  }
  std::uint64_t free_count() const { return free_count_; }
  bool full() const { return free_count_ == 0; }

  std::uint64_t frames_per_unit() const { return frames_per_unit_; }

  /// Frames currently charged to `owner`. Cheap: a counter, not a scan.
  std::uint64_t in_use_by(Asid owner) const {
    return owner < in_use_by_.size() ? in_use_by_[owner] : 0;
  }

  /// Owner of an allocated frame; kInvalidAsid when the frame is not
  /// resident.
  Asid owner_of(Pfn pfn) const {
    const Frame& f = frames_[slot_of(pfn)];
    return f.state == FrameState::kResident ? f.owner : kInvalidAsid;
  }

  /// The coremap entry of `pfn`, or nullptr when `pfn` names no frame of
  /// this allocator (SimCheck reads entries for pfns it has not vetted).
  const Frame* find(Pfn pfn) const {
    return pfn % frames_per_unit_ == 0 && pfn / frames_per_unit_ < capacity()
               ? &frames_[pfn / frames_per_unit_]
               : nullptr;
  }

  /// The whole coremap, indexed by pfn / frames_per_unit().
  std::span<const Frame> frames() const { return frames_; }

  /// Overwrite an entry behind the counters' and free list's back, the way
  /// an accounting bug would. SimCheck fault-injection tests ONLY.
  void corrupt_frame_for_test(Pfn pfn, const Frame& entry) {
    frames_[slot_of(pfn)] = entry;
  }

 private:
  /// Coremap slot of `pfn`; aborts when `pfn` names no frame.
  std::uint64_t slot_of(Pfn pfn) const;
  /// Uncharge a resident frame from its owner.
  void uncharge(const Frame& f);

  std::uint64_t frames_per_unit_;
  std::vector<Frame> frames_;  ///< the coremap, [pfn / frames_per_unit_]
  UnitIdx free_head_;          ///< top of the LIFO free list, or kInvalidUnit
  std::uint64_t free_count_;
  std::uint64_t quarantined_count_ = 0;
  /// Per-asid allocated-frame counts, grown on demand.
  std::vector<std::uint64_t> in_use_by_;
};

}  // namespace cmcp::mm
