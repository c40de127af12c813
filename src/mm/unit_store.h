// Per-unit storage both page tables share: a flag byte and a core mask per
// mapping unit, in two dense direct-indexed arrays (the unit index is the
// slot; docs/performance.md) sized once at construction from the
// computation area's unit count.
//
// The flag byte holds what the OS reads: present, accessed, dirty. The mask
// is kept at runtime width (ceil(cores/64) words per unit, not
// CoreMask::kWords) and widened to a CoreMask only at the API boundary. The
// owning table gives both their meaning: PSPT's flag byte is the OR over
// the unit's private PTEs and its mask the mapping set; a regular table's
// flag byte is its one shared entry and its mask the fill set.
//
// Readers answer "absent" for a unit outside the table; writers require a
// unit inside it.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/core_mask.h"
#include "common/types.h"

namespace cmcp::mm {

class UnitStore {
 public:
  enum Flag : std::uint8_t {
    kPresent = 1u << 0,
    kAccessed = 1u << 1,
    kDirty = 1u << 2,
  };

  /// Units [0, num_units), masks over cores [0, mask_cores).
  UnitStore(UnitIdx num_units, CoreId mask_cores)
      : mask_words_((mask_cores + 63u) / 64u),
        flags_(num_units, 0),
        masks_(static_cast<std::size_t>(num_units) * mask_words_, 0) {}

  bool test(UnitIdx unit, Flag flag) const {
    return unit < flags_.size() && (flags_[unit] & flag) != 0;
  }

  /// Set `flag` on a unit inside the table.
  void set(UnitIdx unit, Flag flag) { flags_[unit] |= flag; }

  /// Make `unit` present. Returns false if it already was.
  bool make_present(UnitIdx unit) {
    CMCP_CHECK_MSG(unit < flags_.size(),
                   "map of a unit outside the table (kInvalidUnit?)");
    if ((flags_[unit] & kPresent) != 0) return false;
    flags_[unit] = kPresent;
    ++present_units_;
    return true;
  }

  /// Clear the accessed bit; returns whether it was set.
  bool clear_accessed(UnitIdx unit) {
    if (!test(unit, kAccessed)) return false;
    flags_[unit] &= static_cast<std::uint8_t>(~kAccessed);
    return true;
  }

  /// Make a present unit absent: its flags and mask read zero again.
  /// Returns the mask as it was.
  CoreMask clear(UnitIdx unit) {
    CMCP_CHECK_MSG(test(unit, kPresent), "unmap of an unmapped unit");
    const CoreMask was = mask(unit);
    flags_[unit] = 0;
    std::uint64_t* w = words(unit);
    for (unsigned i = 0; i < mask_words_; ++i) w[i] = 0;
    --present_units_;
    return was;
  }

  std::uint64_t present_units() const { return present_units_; }

  // --- the core mask -------------------------------------------------------
  bool has_core(UnitIdx unit, CoreId core) const {
    return unit < flags_.size() && ((words(unit)[core >> 6] >> (core & 63)) & 1);
  }
  void add_core(UnitIdx unit, CoreId core) {
    words(unit)[core >> 6] |= std::uint64_t{1} << (core & 63);
  }
  void remove_core(UnitIdx unit, CoreId core) {
    words(unit)[core >> 6] &= ~(std::uint64_t{1} << (core & 63));
  }

  CoreMask mask(UnitIdx unit) const {
    return unit < flags_.size() ? CoreMask::from_words(words(unit), mask_words_)
                                : CoreMask{};
  }

  /// The mask's population.
  unsigned core_count(UnitIdx unit) const {
    if (unit >= flags_.size()) return 0;
    const std::uint64_t* w = words(unit);
    unsigned n = 0;
    for (unsigned i = 0; i < mask_words_; ++i)
      n += static_cast<unsigned>(std::popcount(w[i]));
    return n;
  }

 private:
  std::uint64_t* words(UnitIdx unit) {
    return &masks_[static_cast<std::size_t>(unit) * mask_words_];
  }
  const std::uint64_t* words(UnitIdx unit) const {
    return &masks_[static_cast<std::size_t>(unit) * mask_words_];
  }

  unsigned mask_words_;               ///< ceil(mask_cores / 64)
  std::vector<std::uint8_t> flags_;   ///< [unit] Flag bits
  std::vector<std::uint64_t> masks_;  ///< [unit * mask_words_] core mask
  std::uint64_t present_units_ = 0;
};

}  // namespace cmcp::mm
