// One tenant's address space: asid + computation area + its own page table
// (PSPT or regular), page registry, replacement-policy instance and scanner
// state. The fault path, eviction protocol and scanner sweeps that used to
// live directly on core::MemoryManager now run here, per space; the
// MemoryManager coordinates N of these over one shared FrameAllocator and
// one sim::Machine (shared PCIe link, shared invalidation slot).
//
// An AddressSpace is the PolicyHost of its policy: policies see only their
// own space's resident set — no cross-tenant leakage.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "mm/address.h"
#include "mm/frame_allocator.h"
#include "mm/page_registry.h"
#include "mm/page_table.h"
#include "policy/replacement_policy.h"
#include "sim/checker.h"
#include "sim/machine.h"

namespace cmcp::core {

class MemoryManager;
struct AddressSpaceSpec;

class AddressSpace final : public policy::PolicyHost {
 public:
  /// The device capacity this space's policy reasons about (CMCP's p
  /// ratio) is the space's partition target: the whole device for a single
  /// tenant, an equal share for multi-tenant. Under kNone allocation stays
  /// free-for-all, but each policy still gets that share as its denominator
  /// instead of believing it owns the whole device. The space binds the
  /// spec's cores to `asid` and sizes their TLBs to its area.
  AddressSpace(MemoryManager& mm, Asid asid, const AddressSpaceSpec& spec);
  ~AddressSpace() override;

  /// One reference by `core` to base page `vpn` at virtual time `now`.
  /// Returns the cycles the reference consumed on `core`.
  Cycles access(CoreId core, Vpn vpn, bool write, Cycles now);

  /// Run this space's scanner / policy ticks due at or before `watermark`.
  void run_periodic(Cycles watermark);

  /// Virtual time of the next pending periodic tick: run_periodic(w) is a
  /// no-op for any w below this. The engine caches the minimum over spaces
  /// so its hot loop skips the per-event run_periodic call entirely.
  Cycles next_tick() const { return next_tick_; }

  /// Evict one unit chosen by this space's policy; returns cycles consumed
  /// at `faulting_core` (which may belong to ANOTHER space under QoS
  /// priority eviction), each already charged to one of its buckets, and
  /// frees a frame in the shared allocator — unless
  /// latent ECC poison surfaces on the victim's frame, in which case the
  /// frame is quarantined instead and the caller's allocate loop must evict
  /// again.
  Cycles evict_one(CoreId faulting_core, Cycles now);

  // --- PolicyHost ----------------------------------------------------------
  std::uint64_t capacity_units() const override { return policy_capacity_units_; }
  unsigned num_cores() const override;
  unsigned core_map_count(const mm::ResidentPage& page) const override {
    return page_table_.core_map_count(page.unit);
  }
  bool unit_accessed(const mm::ResidentPage& page) const override;
  Cycles eviction_start() const override;
  Cycles clear_accessed_and_shootdown(mm::ResidentPage& page, CoreId initiator,
                                      Cycles now) override;

  // --- introspection -------------------------------------------------------
  const mm::PageTable& page_table() const { return page_table_; }
  const mm::PageRegistry& registry() const { return registry_; }
  const mm::ComputationArea& area() const { return area_; }
  policy::ReplacementPolicy& policy() { return *policy_; }
  const policy::ReplacementPolicy& policy() const { return *policy_; }
  bool scanner_enabled() const { return policy_->wants_scanner(); }
  std::uint64_t scans_completed() const { return scans_completed_; }
  bool pinned() const { return pinned_; }

  /// Mutable page-table access for SimCheck fault-injection tests ONLY.
  mm::PageTable& mutable_page_table_for_test() { return page_table_; }

  /// Histogram of resident units by number of mapping cores (Fig. 6 data).
  std::vector<std::uint64_t> sharing_histogram() const;

 private:
  /// Issue readahead after `unit`'s fault; returns the issuing cycles,
  /// already charged to `core`'s buckets.
  Cycles prefetch_after(CoreId core, UnitIdx unit, Cycles now);

  /// Allocate a frame for this space's `unit`, screening each candidate
  /// against the fault plan's ECC poison set: poisoned frames are
  /// quarantined (cost added to `*cycles` and charged to cycles_recovery,
  /// events stamped at `base + *cycles`) and the next free frame is tried.
  /// With no plan attached this is exactly one FrameAllocator::allocate.
  /// Returns the frame's coremap entry, not yet in the registry, or nullptr
  /// when no free frame is left.
  mm::ResidentPage* allocate_frame(CoreId core, UnitIdx unit, Cycles base,
                                   Cycles* cycles);

  /// Retire `frame` (ECC poison surfaced): quarantine it in the shared
  /// allocator, shrink the partition, emit trace events and account the
  /// recovery. `frame` must not be in the registry. Returns the detection
  /// cost in cycles.
  Cycles quarantine_frame(CoreId core, Cycles at, mm::ResidentPage& frame,
                          UnitIdx unit);

  /// Shoot down `unit` on `set.targets`, handling the initiator's own TLB
  /// locally. Returns initiator cycles, each charged to one of its buckets
  /// (the local INVLPG to cycles_fault).
  Cycles shootdown_unit(CoreId initiator, Cycles now,
                        const mm::ShootdownSet& set, UnitIdx unit);

  void preload_all();

  MemoryManager& mm_;
  sim::Machine& machine_;
  mm::FrameAllocator& allocator_;  ///< shared across spaces, owned by mm_
  Asid asid_;
  mm::ComputationArea area_;
  mm::PageTable page_table_;
  mm::PageRegistry registry_;  ///< this space's units -> coremap entries
  std::unique_ptr<policy::ReplacementPolicy> policy_;
  std::uint64_t policy_capacity_units_;
  unsigned prefetch_degree_;

  /// evict_one's `now`, recorded for pick_victim (PolicyHost::eviction_start).
  Cycles eviction_start_ = 0;

  /// Address-space-wide page-table lock (regular tables only).
  Cycles pt_lock_busy_until_ = 0;

  /// Scanner shootdown batch, reused across scan passes (reserved once in
  /// the constructor so a sweep allocates nothing).
  std::vector<sim::Machine::BatchItem> scan_flush_;
  std::uint64_t scans_completed_ = 0;

  /// run_periodic's watermark cursor: the next scanner tick.
  Cycles next_tick_ = 0;
  /// Pinned mode: preloaded with full capacity — no evictions ever.
  bool pinned_ = false;

  friend class MemoryManager;
};

}  // namespace cmcp::core
