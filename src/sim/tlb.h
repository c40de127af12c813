// Per-core data TLB model.
//
// Modelled as a fully associative, true-LRU buffer with a fixed number of
// entries for the active page-size class, approximating the Knights Corner
// dTLB (64 x 4 kB entries; fewer entries for the larger formats). A 64 kB
// group occupies a single entry — that is exactly the benefit the hint bit
// buys (paper section 4).
//
// The unit -> slot index is a dense direct-indexed array of one byte per
// unit (the unit index is the array subscript; docs/performance.md): a
// lookup — the single hottest operation in the whole simulator, one per
// simulated reference per core — is one bounds check and one load, no
// hashing. One byte caps the capacity at kMaxCapacity (255) entries, slots
// 0..254, since 0xFF marks "not cached"; the KNC dTLB's largest class has
// 64. The LRU order lives in an intrusive prev/next chain over the fixed
// slot pool.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace cmcp::sim {

/// dTLB entries for the active page-size class: the Knights Corner dTLB's
/// 64 x 4 kB, 32 x 64 kB and 8 x 2 MB entries.
constexpr std::uint32_t tlb_entries(PageSizeClass c) {
  switch (c) {
    case PageSizeClass::k4K: return 64;
    case PageSizeClass::k64K: return 32;
    case PageSizeClass::k2M: return 8;
  }
  return 64;
}

class Tlb {
 public:
  /// Largest capacity the one-byte slot index can address: slots 0..254,
  /// with the byte value 255 kept for "not cached".
  static constexpr std::uint32_t kMaxCapacity = 0xff;

  /// `capacity` entries over an empty unit index; see size_units.
  Tlb(std::uint32_t capacity);

  /// True if `unit` is cached; refreshes its LRU position on hit.
  bool lookup(UnitIdx unit) {
    const std::uint32_t s = slot_of(unit);
    if (s == kNil) return false;
    if (s != mru_) {
      unlink(s);
      push_mru(s);
    }
    return true;
  }

  /// Install a translation, evicting the LRU entry when full. `unit` must
  /// lie inside the sized index.
  void insert(UnitIdx unit);

  /// Drop one translation (INVLPG). Returns true if it was present. The
  /// simulated cost is charged by the callers and does not depend on
  /// presence: a shootdown charges every receiver the interrupt plus one
  /// INVLPG per unit aimed at it (Interconnect::shootdown,
  /// Machine::shootdown_batch), whether or not the entry is cached.
  bool invalidate(UnitIdx unit);

  /// Size the unit index for units [0, n). A core's TLB is sized once, by
  /// the address space its core is bound to, with the area's num_units();
  /// lookup() and invalidate() answer "absent" past the index.
  void size_units(UnitIdx n) { slot_of_.assign(n, kNotCached); }

  std::uint32_t capacity() const { return capacity_; }
  std::size_t occupancy() const { return occupancy_; }

  /// Invoke fn(UnitIdx) for every cached translation, in MRU -> LRU order.
  /// Read-only introspection for SimCheck's TLB-vs-PTE invariant; does not
  /// refresh LRU positions.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (std::uint32_t s = mru_; s != kNil; s = slots_[s].next)
      fn(slots_[s].unit);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;        ///< end of LRU chain
  static constexpr std::uint8_t kNotCached = kMaxCapacity;  ///< slot_of_ "absent"

  struct Slot {
    UnitIdx unit = kInvalidUnit;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  std::uint32_t slot_of(UnitIdx unit) const {
    const std::uint8_t s = unit < slot_of_.size() ? slot_of_[unit] : kNotCached;
    return s == kNotCached ? kNil : s;
  }

  void unlink(std::uint32_t s);
  void push_mru(std::uint32_t s);

  std::uint32_t capacity_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint32_t mru_ = kNil;
  std::uint32_t lru_ = kNil;
  std::vector<std::uint8_t> slot_of_;  ///< [unit] -> slot or kNotCached
  std::size_t occupancy_ = 0;
};

}  // namespace cmcp::sim
