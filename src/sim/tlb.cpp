#include "sim/tlb.h"

#include "common/assert.h"

namespace cmcp::sim {

Tlb::Tlb(std::uint32_t capacity) : capacity_(capacity), slots_(capacity) {
  CMCP_CHECK(capacity > 0);
  CMCP_CHECK_MSG(capacity <= kMaxCapacity,
                 "TLB capacity above 255 entries overflows the one-byte "
                 "unit -> slot index");
  free_.reserve(capacity);
  for (std::uint32_t i = capacity; i-- > 0;) free_.push_back(i);
}

void Tlb::unlink(std::uint32_t s) {
  Slot& slot = slots_[s];
  if (slot.prev != kNil)
    slots_[slot.prev].next = slot.next;
  else
    mru_ = slot.next;
  if (slot.next != kNil)
    slots_[slot.next].prev = slot.prev;
  else
    lru_ = slot.prev;
  slot.prev = slot.next = kNil;
}

void Tlb::push_mru(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.prev = kNil;
  slot.next = mru_;
  if (mru_ != kNil) slots_[mru_].prev = s;
  mru_ = s;
  if (lru_ == kNil) lru_ = s;
}

void Tlb::insert(UnitIdx unit) {
  CMCP_CHECK_MSG(unit < slot_of_.size(),
                 "insert of a unit outside the index (kInvalidUnit?)");
  if (const std::uint32_t s = slot_of(unit); s != kNil) {
    // Already present (e.g. re-walk after an access-bit refresh); touch it.
    if (s != mru_) {
      unlink(s);
      push_mru(s);
    }
    return;
  }
  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
    ++occupancy_;
  } else {
    CMCP_CHECK(lru_ != kNil);
    s = lru_;
    slot_of_[slots_[s].unit] = kNotCached;
    unlink(s);
  }
  slots_[s].unit = unit;
  slot_of_[unit] = static_cast<std::uint8_t>(s);
  push_mru(s);
}

bool Tlb::invalidate(UnitIdx unit) {
  const std::uint32_t s = slot_of(unit);
  if (s == kNil) return false;
  slot_of_[unit] = kNotCached;
  unlink(s);
  slots_[s].unit = kInvalidUnit;
  free_.push_back(s);
  --occupancy_;
  return true;
}

}  // namespace cmcp::sim
