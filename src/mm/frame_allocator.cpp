#include "mm/frame_allocator.h"

#include "common/assert.h"

namespace cmcp::mm {

FrameAllocator::FrameAllocator(std::uint64_t capacity, PageSizeClass size)
    : frames_per_unit_(base_pages_per_unit(size)),
      frames_(capacity),
      free_head_(0),
      free_count_(capacity) {
  CMCP_CHECK(capacity > 0);
  // LIFO free list; hand out ascending frame numbers first.
  for (std::uint64_t slot = 0; slot + 1 < capacity; ++slot)
    frames_[slot].unit = slot + 1;
}

std::uint64_t FrameAllocator::slot_of(Pfn pfn) const {
  CMCP_CHECK(pfn % frames_per_unit_ == 0);
  const auto slot = pfn / frames_per_unit_;
  CMCP_CHECK(slot < capacity());
  return slot;
}

Pfn FrameAllocator::allocate(Asid owner, UnitIdx unit) {
  if (free_head_ == kInvalidUnit) return kInvalidPfn;
  const std::uint64_t slot = free_head_;
  Frame& f = frames_[slot];
  CMCP_CHECK(f.state == FrameState::kFree);
  free_head_ = f.unit;
  --free_count_;
  f = Frame{.unit = unit, .owner = owner, .state = FrameState::kResident};
  if (owner >= in_use_by_.size()) {
    CMCP_CHECK_MSG(owner != kInvalidAsid, "frame charged to kInvalidAsid");
    in_use_by_.resize(owner + 1, 0);
  }
  ++in_use_by_[owner];
  return slot * frames_per_unit_;
}

void FrameAllocator::uncharge(const Frame& f) {
  CMCP_CHECK(f.owner < in_use_by_.size() && in_use_by_[f.owner] > 0);
  --in_use_by_[f.owner];
}

void FrameAllocator::free(Pfn pfn) {
  const std::uint64_t slot = slot_of(pfn);
  Frame& f = frames_[slot];
  CMCP_CHECK_MSG(f.state == FrameState::kResident,
                 "double free of device frame");
  uncharge(f);
  f = Frame{.unit = free_head_};
  free_head_ = slot;
  ++free_count_;
}

void FrameAllocator::quarantine(Pfn pfn) {
  Frame& f = frames_[slot_of(pfn)];
  CMCP_CHECK_MSG(f.state == FrameState::kResident,
                 "quarantine of a frame that is not allocated");
  uncharge(f);
  // Deliberately NOT pushed onto the free list: retired for the run.
  f = Frame{.state = FrameState::kQuarantined};
  ++quarantined_count_;
}

}  // namespace cmcp::mm
