// Page table abstraction over the computation area.
//
// Two concrete organizations (paper section 2.3):
//  * RegularPageTable — one shared set of translations. The kernel cannot
//    tell which cores cached a translation, so an unmap must shoot down
//    every core of the address space, and the core-map count is
//    unobtainable.
//  * Pspt — per-core private PTEs for the computation area. Unmaps target
//    exactly the mapping cores, and the number of mapping cores per unit is
//    available as auxiliary knowledge — the input to CMCP.
//
// Translations are tracked per mapping unit (4 kB / 64 kB / 2 MB); accessed
// and dirty bits carry the semantics the access-bit scanner depends on. Both
// keep one flag byte and one core mask per unit (mm::UnitStore), sized once
// at construction from the area's unit count: map() of a unit outside the
// table aborts, and every reader answers "absent" for one.
#pragma once

#include "common/core_mask.h"
#include "common/types.h"

namespace cmcp::mm {

/// The cores one unit's shootdown reaches.
struct ShootdownSet {
  /// Cores the kernel must interrupt. Each one is charged the IPI, the
  /// interrupt and INVLPG whether or not its TLB holds the unit.
  CoreMask targets;
  /// The cores whose TLB may cache the unit (PageTable::tlb_holders).
  /// Host-side only: the simulator calls Tlb::invalidate on the targets in
  /// this set and skips the rest, where it would find nothing.
  CoreMask holders;
};

class PageTable {
 public:
  virtual ~PageTable() = default;

  virtual PageTableKind kind() const = 0;

  /// Is `unit` translated from `core`'s point of view (its walk would hit)?
  virtual bool has_mapping(CoreId core, UnitIdx unit) const = 0;

  /// Is `unit` mapped by at least one core (i.e. resident and reachable)?
  virtual bool any_mapping(UnitIdx unit) const = 0;

  /// Install a translation for `core`. For regular tables the entry becomes
  /// visible to every core at once. The device frame is the resident page's
  /// (mm::ResidentPage::pfn); the table does not keep a copy.
  virtual void map(CoreId core, UnitIdx unit) = 0;

  /// Remove the translation on every core; returns the cores that must be
  /// shot down (mapping_cores) and those whose TLB may hold it
  /// (tlb_holders), both as they were before the unmap.
  virtual ShootdownSet unmap_all(UnitIdx unit) = 0;

  /// Cores a shootdown of `unit` must target: the cores the kernel knows
  /// may cache it (regular: every core of the space; PSPT: the mapping
  /// set).
  virtual CoreMask mapping_cores(UnitIdx unit) const = 0;

  /// Cores whose TLB may hold `unit`: a superset of the cores that do,
  /// which SimCheck's tlb-consistency holds it to. A simulator-side fact
  /// the modelled kernel does not have, so it changes no simulated cost.
  /// PSPT: the mapping set (TLB ⊆ PTE). Regular: every core that filled its
  /// TLB from the entry (mark_accessed) since the unit was mapped.
  virtual CoreMask tlb_holders(UnitIdx unit) const = 0;

  /// Number of cores mapping `unit`. Only PSPT can answer precisely; the
  /// regular table pessimistically reports the space's core count (paper:
  /// the information "cannot be obtained from regular page tables").
  virtual unsigned core_map_count(UnitIdx unit) const = 0;

  // --- hardware-set attribute bits ---------------------------------------
  /// Set by `core`'s page walk; every TLB fill goes through it.
  virtual void mark_accessed(CoreId core, UnitIdx unit) = 0;
  virtual void mark_dirty(CoreId core, UnitIdx unit) = 0;

  /// True if any PTE (any core, any sub-entry) has the accessed bit set.
  /// `pte_reads` (optional) receives the number of PTE words the OS had to
  /// inspect — 16x more for 64 kB groups, one per mapping core under PSPT.
  virtual bool test_accessed(UnitIdx unit, unsigned* pte_reads) const = 0;

  /// Clear the accessed bit(s). Returns whether any was set. Clearing makes
  /// the cached TLB copies stale, so the caller MUST follow with a shootdown
  /// of mapping_cores() — the invariant the paper's whole argument rests on.
  virtual bool clear_accessed(UnitIdx unit) = 0;

  virtual bool test_dirty(UnitIdx unit) const = 0;

  /// Resident units currently mapped (for scanner iteration).
  virtual std::uint64_t mapped_units() const = 0;
};

}  // namespace cmcp::mm
