#include "mm/frame_allocator.h"

#include <functional>

#include "common/assert.h"

namespace cmcp::mm {

FrameAllocator::FrameAllocator(std::uint64_t capacity, PageSizeClass size,
                               Asid owners)
    : frames_per_unit_(base_pages_per_unit(size)),
      capacity_(capacity),
      free_count_(capacity),
      in_use_by_(owners, 0) {
  CMCP_CHECK(capacity > 0);
  CMCP_CHECK(owners > 0);
  frames_.reserve(capacity);
}

std::uint64_t FrameAllocator::slot_of(const ResidentPage& page) const {
  const ResidentPage* const begin = frames_.data();
  // std::less orders any two pointers, also ones into different arrays.
  const std::less<const ResidentPage*> before;
  CMCP_CHECK_MSG(!before(&page, begin) && before(&page, begin + frames_.size()),
                 "entry is not in this coremap");
  return static_cast<std::uint64_t>(&page - begin);
}

ResidentPage* FrameAllocator::allocate(Asid owner, UnitIdx unit) {
  CMCP_CHECK_MSG(owner < in_use_by_.size(),
                 "frame charged to an unknown owner (kInvalidAsid?)");
  ResidentPage* page;
  if (free_head_ != kInvalidUnit) {
    page = &frames_[free_head_];
    CMCP_CHECK(page->state == FrameState::kFree);
    free_head_ = page->unit;
  } else if (frames_.size() < capacity_) {
    // Never handed out yet; within the reservation, so no entry moves.
    page = &frames_.emplace_back();
  } else {
    return nullptr;
  }
  --free_count_;
  *page = ResidentPage{
      .unit = unit, .owner = owner, .state = FrameState::kResident};
  ++in_use_by_[owner];
  return page;
}

void FrameAllocator::uncharge(const ResidentPage& page) {
  CMCP_CHECK(page.owner < in_use_by_.size() && in_use_by_[page.owner] > 0);
  --in_use_by_[page.owner];
}

void FrameAllocator::free(ResidentPage& page) {
  const std::uint64_t slot = slot_of(page);
  CMCP_CHECK_MSG(page.state == FrameState::kResident,
                 "double free of device frame");
  uncharge(page);
  page = ResidentPage{.unit = free_head_};
  free_head_ = slot;
  ++free_count_;
}

void FrameAllocator::quarantine(ResidentPage& page) {
  (void)slot_of(page);  // aborts on an entry of another coremap
  CMCP_CHECK_MSG(page.state == FrameState::kResident,
                 "quarantine of a frame that is not allocated");
  uncharge(page);
  // Deliberately NOT pushed onto the free list: retired for the run.
  page = ResidentPage{.state = FrameState::kQuarantined};
  ++quarantined_count_;
}

}  // namespace cmcp::mm
