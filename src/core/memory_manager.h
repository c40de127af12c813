// The OS-level hierarchical memory manager (paper's proposed model,
// Fig. 1b/1c): the computation area is partially resident in device RAM and
// backed by host memory over PCIe.
//
// The manager is a coordinator: it owns the shared FrameAllocator, the
// frame-partition (QoS) policy, and one core::AddressSpace per tenant — each
// with its own page table, registry and replacement policy — contending for
// the shared frames, PCIe link and invalidation slot of one sim::Machine.
// It is built from a list of AddressSpaceSpec; the paper's single manager
// is the one-spec, PartitionKind::kNone case. Per-tenant state is reached
// through space(asid).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "core/address_space.h"
#include "mm/address.h"
#include "mm/frame_allocator.h"
#include "mm/frame_partition.h"
#include "mm/page_registry.h"
#include "mm/page_table.h"
#include "policy/policy_factory.h"
#include "policy/replacement_policy.h"
#include "sim/checker.h"
#include "sim/machine.h"

namespace cmcp::core {

/// Factory for user-defined replacement policies (see examples/custom_policy).
/// The host handed to the factory is the policy's AddressSpace.
using PolicyFactory = std::function<std::unique_ptr<policy::ReplacementPolicy>(
    policy::PolicyHost&)>;

struct MemoryManagerConfig {
  PageTableKind pt_kind = PageTableKind::kPspt;
  policy::PolicyParams policy;
  /// When set, overrides `policy` with a user-supplied implementation.
  PolicyFactory custom_policy;
  /// Sequential prefetch: on a major fault, also fetch up to this many
  /// following non-resident units — but only into FREE frames (prefetch
  /// never evicts). 0 disables. Extension feature; see
  /// bench/ablation_prefetch.
  unsigned prefetch_degree = 0;
  /// "No data movement" baseline: all units start resident (and pinned —
  /// the space's partition target must cover the footprint). First touches
  /// become cheap PTE faults with no PCIe traffic, matching data that was
  /// allocated on the device to begin with.
  bool preload = false;
};

/// One tenant of the manager.
struct AddressSpaceSpec {
  mm::ComputationArea area;
  MemoryManagerConfig config;
  /// The tenant's app cores: [first_core, first_core + num_cores).
  CoreId first_core = 0;
  CoreId num_cores = 0;
};

class MemoryManager final {
 public:
  /// One address space per spec (asid == index), all contending for
  /// `shared_capacity_units` frames under `partition`. The machine must
  /// have been built with num_address_spaces == specs.size(); each space
  /// binds its spec's core block to itself (Machine::set_core_space).
  MemoryManager(sim::Machine& machine, const std::vector<AddressSpaceSpec>& specs,
                std::uint64_t shared_capacity_units, mm::PartitionKind partition);

  /// One reference by `core` to base page `vpn` at virtual time `now`,
  /// routed to the core's address space. Returns the cycles the reference
  /// consumed on `core` (the caller advances the core clock).
  Cycles access(CoreId core, Vpn vpn, bool write, Cycles now);

  /// Run scanner / policy ticks that are due at or before `watermark`, for
  /// every address space in asid order. The engine calls this with a
  /// monotonically non-decreasing global time.
  void run_periodic(Cycles watermark);

  /// Earliest pending periodic tick over all spaces: run_periodic(w) is a
  /// no-op for any w below this, so the engine batches events between due
  /// times without calling into the manager at all.
  Cycles next_periodic_due() const {
    Cycles due = ~Cycles{0};
    for (const std::unique_ptr<AddressSpace>& space : spaces_)
      due = std::min(due, space->next_tick());
    return due;
  }

  unsigned num_spaces() const { return static_cast<unsigned>(spaces_.size()); }
  AddressSpace& space(Asid asid) { return *spaces_[asid]; }
  const AddressSpace& space(Asid asid) const { return *spaces_[asid]; }
  const mm::FramePartition& partition() const { return partition_; }

  /// Pick the victim space for a denied allocation by `requester` and make
  /// it evict one unit (initiated by `core`, the faulting core). Returns
  /// cycles consumed at `core`, already charged to its buckets. Exactly one
  /// frame becomes free — unless latent ECC poison surfaces on the victim
  /// frame (it is quarantined and the caller must evict again).
  Cycles evict_for(Asid requester, CoreId core, Cycles now);

  /// Called by a space right after it quarantines a frame: recompute the
  /// partition's targets against the shrunk usable capacity so tenants
  /// degrade proportionally instead of crashing.
  void on_frames_quarantined() {
    partition_.set_capacity(allocator_.usable_capacity());
  }

  /// Shootdown-interference accounting: `cause` invalidated `units` TLB
  /// entries on `receiver`'s cores. Mirrors the per-receiver
  /// remote_invalidations_received counter exactly. Only recorded when
  /// num_spaces() > 1 (callers gate, keeping the single-tenant path free).
  void record_interference(Asid cause, Asid receiver, std::uint64_t units) {
    interference_[cause * spaces_.size() + receiver] += units;
  }

  /// interference()[cause * num_spaces() + receiver] = remote TLB entries
  /// invalidated on `receiver`'s cores by shootdowns `cause` initiated.
  const std::vector<std::uint64_t>& interference() const { return interference_; }

  const mm::FrameAllocator& allocator() const { return allocator_; }
  /// Mutable allocator access for SimCheck fault-injection tests ONLY
  /// (mirrors AddressSpace::mutable_page_table_for_test).
  mm::FrameAllocator& mutable_allocator_for_test() { return allocator_; }
  /// Shared device capacity in mapping units (the allocator's capacity).
  std::uint64_t capacity_units() const { return allocator_.capacity(); }

  /// Attach a SimCheck registry (non-owning, may be null). Every address
  /// space then runs invariant sweeps at its protocol checkpoints. Only
  /// effective when CMCP_SIMCHECK_ENABLED compiles the call sites in.
  void set_check_registry(sim::CheckRegistry* checks) { checks_ = checks; }
  sim::CheckRegistry* check_registry() const { return checks_; }

 private:
  sim::Machine& machine_;
  mm::FrameAllocator allocator_;
  mm::FramePartition partition_;
  std::vector<std::unique_ptr<AddressSpace>> spaces_;

  sim::CheckRegistry* checks_ = nullptr;  ///< non-owning; null = unchecked

  /// Engine-thread-only (like the per-space fault-path state): flattened
  /// [cause][receiver] matrix of remote TLB invalidations across spaces.
  std::vector<std::uint64_t> interference_;

  friend class AddressSpace;
};

}  // namespace cmcp::core
