// The simulated many-core machine: per-core virtual clocks, per-core TLBs,
// per-core counters, the shared PCIe link and the IPI interconnect.
//
// One extra pseudo-core (id == num_cores) represents the dedicated
// hyperthread the paper uses for LRU's access-bit scanner: it has a clock and
// counters but never runs application work, so scanning consumes no
// application compute time — only its shootdowns disturb the app cores.
//
// A Machine belongs to one Simulation and runs on one host thread. The
// paper's serialized invalidation-request slot (section 5.5) is modelled
// in virtual time by the Interconnect, not by a host lock.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/core_mask.h"
#include "common/types.h"
#include "metrics/counters.h"
#include "sim/cost_model.h"
#include "sim/interconnect.h"
#include "sim/pcie_link.h"
#include "sim/tlb.h"
#include "sim/trace.h"

namespace cmcp::sim {

/// How remote TLB entries are invalidated.
enum class TlbCoherence : std::uint8_t {
  /// Software IPIs through the serialized invalidation slot — x86 reality
  /// and the default. Receivers take interrupts; initiators wait for acks.
  kIpiShootdown = 0,
  /// Hypothetical TLB directory hardware (DiDi-style): directed
  /// invalidations at bus cost, no interrupts, no global serialization.
  /// Used by the hardware-vs-software ablation.
  kHardwareDirectory = 1,
};

struct MachineConfig {
  CoreId num_cores = 56;
  PageSizeClass page_size = PageSizeClass::k4K;
  TlbCoherence tlb_coherence = TlbCoherence::kIpiShootdown;
  CostModel cost;
};

class Machine {
 public:
  /// `num_address_spaces` address spaces share the machine. Each owns one
  /// scanner pseudo-core (id == num_cores + asid); the default of 1 is the
  /// paper's single-tenant machine with its lone scanner at id == num_cores.
  explicit Machine(const MachineConfig& config, unsigned num_address_spaces = 1);

  const MachineConfig& config() const { return config_; }
  const CostModel& cost() const { return config_.cost; }
  CoreId num_cores() const { return config_.num_cores; }

  /// Pseudo-core used by the access-bit scanner daemon of address space
  /// `asid` (one dedicated hyperthread per tenant).
  CoreId scanner_core(Asid asid = 0) const { return config_.num_cores + asid; }

  unsigned num_address_spaces() const { return num_address_spaces_; }

  /// App cores plus every scanner pseudo-core (valid core ids are
  /// [0, total_cores())).
  CoreId total_cores() const { return config_.num_cores + num_address_spaces_; }

  /// Which address space a core (app or scanner pseudo-core) belongs to.
  /// All-zero until set_core_space() assigns tenant core sets.
  Asid space_of_core(CoreId core) const { return core_space_[core]; }
  void set_core_space(CoreId core, Asid asid) { core_space_[core] = asid; }

  Cycles clock(CoreId core) const { return clocks_[core]; }
  void advance(CoreId core, Cycles amount) { clocks_[core] += amount; }
  void set_clock(CoreId core, Cycles value) { clocks_[core] = value; }

  Tlb& tlb(CoreId core) { return tlbs_[core]; }
  const Tlb& tlb(CoreId core) const { return tlbs_[core]; }
  metrics::CoreCounters& counters(CoreId core) { return counters_[core]; }
  const metrics::CoreCounters& counters(CoreId core) const { return counters_[core]; }

  PcieLink& pcie() { return pcie_; }
  Interconnect& interconnect() { return interconnect_; }

  /// Attach/detach the structured event sink. Null (the default) disables
  /// tracing; every emit point is then a single pointer test.
  void set_trace(trace::EventSink* sink) { trace_ = sink; }
  trace::EventSink* trace() const { return trace_; }

  /// Attach/detach the fault-injection plan (sim/fault_plan.h). Null (the
  /// default) is the perfect machine: every guarded site takes the exact
  /// pre-fault code path.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }
  FaultPlan* fault_plan() const { return faults_; }

  /// One PCIe transfer routed through the fault plan (when attached),
  /// emitting the kPcieTransfer trace event plus any fault/retry/give-up
  /// events and charging `core` the fault counters. It charges no cycle
  /// bucket: a core that waits for the transfer charges the wait itself,
  /// with `recovery` as cycles_recovery, and a readahead waits for nothing.
  PcieTransferOutcome pcie_transfer(CoreId core, PcieDir dir, Cycles ready_at,
                                    std::uint64_t bytes, UnitIdx unit,
                                    Asid asid);

  /// Perform a remote TLB shootdown of `unit` on all cores in `targets`
  /// (the initiator must not be in the mask). Charges every target the
  /// interrupt and INVLPG cost and its counters, and returns the cycles
  /// consumed at the initiator, which the caller adds to its clock. Each of
  /// those cycles is already charged to one of the initiator's buckets:
  /// slot wait to cycles_lock_wait, the IPI round to cycles_shootdown and
  /// lost-ack recovery to cycles_recovery. `holders` are the
  /// cores whose TLB may cache the unit (mm::PageTable::tlb_holders): only
  /// targets among them have their TLB entries dropped, since on any other
  /// target Tlb::invalidate would find nothing. The simulated cost does not
  /// depend on `holders`.
  Cycles shootdown(CoreId initiator, Cycles now, const CoreMask& targets,
                   const CoreMask& holders, UnitIdx unit);

  /// Batched shootdown: one slot acquisition and one IPI round for several
  /// units — how the access-bit scanner flushes a run of cleared PTEs.
  /// Each receiver pays one interrupt plus INVLPG for every item that
  /// targets it; remote-invalidation counters grow by that per-receiver
  /// count. As in shootdown(), only an item's holders lose the entry.
  struct BatchItem {
    UnitIdx unit;
    CoreMask targets;
    CoreMask holders;
  };
  Cycles shootdown_batch(CoreId initiator, Cycles now,
                         std::span<const BatchItem> items);

 private:
  /// Space owning the cores in `targets` (the shot-down unit's space: only
  /// its own cores can map it). Falls back to 0 for an empty mask.
  Asid space_of_targets(const CoreMask& targets) const {
    Asid out = 0;
    bool found = false;
    targets.for_each([&](CoreId t) {
      if (!found) {
        out = core_space_[t];
        found = true;
      }
    });
    return out;
  }

  /// Directed invalidation via the hypothetical TLB directory hardware.
  Cycles hw_invalidate(CoreId initiator, Cycles now, const CoreMask& targets,
                       const CoreMask& holders, UnitIdx unit);

  /// Lost-acknowledgement injection for one completed IPI round. Each lost
  /// ack costs the initiator an exponential-backoff timeout plus a re-sent
  /// (idempotent) IPI round that interrupts every receiver again; at the
  /// retry budget the initiator gives up on acks and polls remote state
  /// directly. Returns the extra initiator cycles, charged to its
  /// cycles_recovery (and nowhere else). Runs with the slot held
  /// (it models the initiator still occupying the invalidation request).
  Cycles inject_ack_faults(CoreId initiator, Cycles ack_time,
                           const CoreMask& targets, UnitIdx unit, Asid asid);

  MachineConfig config_;
  unsigned num_address_spaces_;
  // Per-core state (clocks, TLBs, counters) is indexed by core id.
  // Shootdowns are the one path that mutates *other* cores' state; their
  // serialization on the kernel's invalidation-request slot (paper section
  // 5.5) is modelled in virtual time by `interconnect_`.
  std::vector<Cycles> clocks_;
  std::vector<Tlb> tlbs_;
  std::vector<metrics::CoreCounters> counters_;
  /// Core -> owning address space, for tagging machine-level trace events.
  /// Written during setup, read-only while the engine runs.
  std::vector<Asid> core_space_;
  PcieLink pcie_;
  Interconnect interconnect_;
  trace::EventSink* trace_ = nullptr;  ///< non-owning; null = disabled
  FaultPlan* faults_ = nullptr;        ///< non-owning; null = perfect machine
};

}  // namespace cmcp::sim
