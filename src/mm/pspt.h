// Per-core Partially Separated Page Tables (paper section 2.3, CCGrid'13).
//
// Each core owns a private set of PTEs for the computation area; a core maps
// a unit only when it actually touches it, and a core that never maps a unit
// of this space owns no table at all (a tenant's space is never touched by
// the other tenants' cores). A per-unit directory records the
// mapping-core mask, giving O(1) answers to the two questions regular tables
// cannot answer: "whose TLB can hold this translation?" (shootdown targeting)
// and "how many cores map this page?" (CMCP's priority signal).
//
// Storage is dense and direct-indexed (docs/performance.md): the unit index
// is the slot. The per-core "PTE" is a single flag byte and the directory
// holds no frame number: the frame is stored once, in the resident page
// (mm::ResidentPage::pfn), so the PSPT coherence invariant (all private PTEs
// of a virtual page name the same frame) holds by construction. Every query
// on the per-access path is one or two indexed loads; no hashing anywhere.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "mm/page_table.h"

namespace cmcp::mm {

class Pspt final : public PageTable {
 public:
  explicit Pspt(CoreId num_cores);

  PageTableKind kind() const override { return PageTableKind::kPspt; }

  bool has_mapping(CoreId core, UnitIdx unit) const override;
  bool any_mapping(UnitIdx unit) const override;
  void map(CoreId core, UnitIdx unit) override;
  ShootdownSet unmap_all(UnitIdx unit) override;
  CoreMask mapping_cores(UnitIdx unit) const override;
  /// The mapping set: a core's TLB fills only from its own PTE.
  CoreMask tlb_holders(UnitIdx unit) const override {
    return mapping_cores(unit);
  }
  unsigned core_map_count(UnitIdx unit) const override;

  void mark_accessed(CoreId core, UnitIdx unit) override;
  void mark_dirty(CoreId core, UnitIdx unit) override;
  bool test_accessed(UnitIdx unit, unsigned* pte_reads) const override;
  bool clear_accessed(UnitIdx unit) override;
  bool test_dirty(UnitIdx unit) const override;
  std::uint64_t mapped_units() const override { return mapped_units_; }

  void reserve_units(UnitIdx n) override;

  /// Per-core view, for tests and the Fig. 6 analysis.
  std::uint64_t mapped_units_of_core(CoreId core) const {
    return mapped_of_core_[core];
  }

  /// Whether `core` has a private table here, i.e. has ever mapped a unit
  /// of this space (tests pin that foreign cores cost no memory).
  bool has_table(CoreId core) const { return !tables_[core].empty(); }

  // --- test-only fault injection ------------------------------------------
  // SimCheck's checker-detects-the-bug coverage needs a way to corrupt the
  // directory the way a real accounting bug would (count drifting from the
  // mask, mask gaining a core without a PTE). Never called by product code.
  void corrupt_count_for_test(UnitIdx unit, unsigned count);
  void corrupt_mask_add_core_for_test(UnitIdx unit, CoreId core);

 private:
  /// Private-PTE flag byte. kValid doubles as "entry exists" — a zero byte
  /// is exactly "this core does not map this unit", so freshly grown
  /// storage is correct without initialization beyond zeroing, and a core
  /// with no table reads as all-zero bytes.
  enum PteFlags : std::uint8_t {
    kValid = 1u << 0,
    kAccessed = 1u << 1,
    kDirty = 1u << 2,
  };

  /// Directory entry WITHOUT the mapping mask: the mask lives in the
  /// parallel `masks_` array at runtime width (ceil(num_cores/64) words
  /// per unit, not CoreMask::kWords). At the paper's 56 cores that is one
  /// word per unit instead of seventeen — the directory is touched on
  /// every fault and eviction, and shrinking the entry from three cache
  /// lines to one is worth the widening copy at the CoreMask API boundary.
  struct UnitInfo {
    unsigned count = 0;
    /// Directory entry liveness. Deliberately separate from `count`, which
    /// the corruption test hooks may set to arbitrary values (including 0)
    /// without the unit ceasing to exist.
    bool present = false;
  };

  std::uint64_t* mask_of(UnitIdx unit) {
    return &masks_[static_cast<std::size_t>(unit) * mask_words_];
  }
  const std::uint64_t* mask_of(UnitIdx unit) const {
    return &masks_[static_cast<std::size_t>(unit) * mask_words_];
  }

  /// `core`'s flag byte for `unit`; 0 when the core has no table. Readers
  /// go through this rather than `tables_` so a mask naming a table-less
  /// core (only a corrupted one can) reads as "no PTE" instead of out of
  /// bounds.
  std::uint8_t flags(CoreId core, UnitIdx unit) const {
    const auto& table = tables_[core];
    return unit < table.size() ? table[unit] : 0;
  }

  /// Invoke fn(CoreId) for every mapping core of `unit`, ascending.
  template <typename Fn>
  void for_each_mapping(UnitIdx unit, Fn&& fn) const {
    const std::uint64_t* w = mask_of(unit);
    for (unsigned wi = 0; wi < mask_words_; ++wi) {
      std::uint64_t word = w[wi];
      while (word != 0) {
        fn(static_cast<CoreId>(wi * 64 + std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  /// Grow per-unit storage to cover `unit` (amortized; steady-state runs
  /// never hit the growth path because MemoryManager pre-reserves).
  void ensure_unit(UnitIdx unit);

  CoreId num_cores_;
  unsigned mask_words_;                            ///< ceil(num_cores/64)
  /// [core][unit] flag byte. A core's table is allocated by its first
  /// map(); after that it always spans the directory (reserve_units grows
  /// only existing tables), so a table is either empty or full-size.
  std::vector<std::vector<std::uint8_t>> tables_;
  std::vector<UnitInfo> directory_;                ///< [unit]
  std::vector<std::uint64_t> masks_;  ///< [unit * mask_words_] mapping mask
  std::vector<std::uint64_t> mapped_of_core_;      ///< [core] valid PTE count
  std::uint64_t mapped_units_ = 0;                 ///< present directory entries
};

}  // namespace cmcp::mm
