// SimCheck's concrete invariant checkers over the live memory-management
// protocol state. Each checker encodes one claim the paper's results depend
// on; docs/invariants.md catalogues them with their paper justification.
//
//   pspt-consistency   core-map count == mapping mask == per-core PTEs
//   tlb-consistency    no cached translation without a live PTE, and none
//                      on a core outside the table's TLB holders
//   frame-table        every resident page's coremap entry names its space
//                      and unit; coremap tallies match the allocator's
//                      counters and the registries; the partition saw the
//                      current usable capacity
//   policy-accounting  policy list sizes == resident-set size
//   clock-monotonic    per-core virtual clocks never run backwards
//
// Per-space checkers (pspt-consistency, policy-accounting) are registered
// once per address space; with more than one space their names gain an
// "/asid<N>" suffix so violations localize to a tenant.
//
// All factories take the objects by reference; the checkers are read-only
// observers and must not outlive the MemoryManager / Machine they watch.
#pragma once

#include <memory>

#include "core/memory_manager.h"
#include "sim/checker.h"
#include "sim/machine.h"

namespace cmcp::check {

std::unique_ptr<sim::Checker> make_pspt_consistency_checker(
    const core::MemoryManager& mm);

std::unique_ptr<sim::Checker> make_tlb_consistency_checker(
    const core::MemoryManager& mm, const sim::Machine& machine);

std::unique_ptr<sim::Checker> make_frame_table_checker(
    const core::MemoryManager& mm);

std::unique_ptr<sim::Checker> make_policy_accounting_checker(
    const core::MemoryManager& mm);

std::unique_ptr<sim::Checker> make_clock_monotonicity_checker(
    const sim::Machine& machine);

/// Register the full default suite (everything above) on `registry`.
void register_default_checkers(sim::CheckRegistry& registry,
                               const core::MemoryManager& mm,
                               const sim::Machine& machine);

}  // namespace cmcp::check
