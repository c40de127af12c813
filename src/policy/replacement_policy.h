// Replacement-policy framework.
//
// Policies see residency events (insert / core-map growth / eviction),
// scanner events (for access-bit based policies), and are asked to pick
// victims. Anything that needs hardware state — reading or clearing accessed
// bits, which implies TLB shootdowns — goes through PolicyHost so the full
// cost (including the remote invalidations the paper measures) is charged to
// whoever triggered it.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "common/types.h"
#include "mm/page_registry.h"

namespace cmcp::policy {

/// Receives one (name, value) pair per policy statistic. Exporters use this
/// to dump *all* stats of any policy without knowing its keys.
using StatVisitor = std::function<void(std::string_view name, std::uint64_t value)>;

/// Services the memory manager provides to policies.
class PolicyHost {
 public:
  virtual ~PolicyHost() = default;

  /// Device capacity in mapping units (for CMCP's p ratio).
  virtual std::uint64_t capacity_units() const = 0;

  virtual unsigned num_cores() const = 0;

  /// Number of cores mapping `page` — CMCP's priority signal. Exact under
  /// PSPT, the full core count under regular tables (the information is
  /// unobtainable there), 0 while no core maps a resident page (prefetched
  /// or preloaded). Read from the page-table directory, its only store.
  virtual unsigned core_map_count(const mm::ResidentPage& page) const = 0;

  /// Read the accessed bit (any mapping core / any sub-entry) WITHOUT
  /// clearing it. Cheap: no shootdown.
  virtual bool unit_accessed(const mm::ResidentPage& page) const = 0;

  /// Virtual time at which the eviction now asking pick_victim started:
  /// the faulting core's time after its fault cycles and any earlier slot
  /// waits (for timestamping inline shootdowns).
  virtual Cycles eviction_start() const = 0;

  /// Clear the accessed bit(s) and shoot down the translation on every
  /// mapping core — the unavoidable price of usage sampling on x86.
  /// `now` is the initiator's virtual time when the clear happens; a policy
  /// issuing several clears in one decision MUST advance it by the returned
  /// cycles between calls (issuing them all at a stale timestamp makes each
  /// wait for the previous one's slot hold from an ever-older vantage,
  /// compounding into runaway virtual time). Returns the cycles consumed at
  /// `initiator` (charged by the caller via pick_victim's extra_cycles).
  virtual Cycles clear_accessed_and_shootdown(mm::ResidentPage& page,
                                              CoreId initiator, Cycles now) = 0;
};

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual std::string_view name() const = 0;

  /// A unit became resident; its mapping (if any) is already installed, so
  /// PolicyHost::core_map_count answers for it.
  virtual void on_insert(mm::ResidentPage& page) = 0;

  /// An additional core mapped an already-resident unit (PSPT minor fault).
  virtual void on_core_map_grow(mm::ResidentPage& page) { (void)page; }

  /// Choose the eviction victim. Must not return nullptr when at least one
  /// page is resident. `extra_cycles` receives any cost the decision itself
  /// incurred at `faulting_core` (e.g. CLOCK's second-chance shootdowns);
  /// policies with O(1) decisions leave it at 0.
  virtual mm::ResidentPage* pick_victim(CoreId faulting_core,
                                        Cycles& extra_cycles) = 0;

  /// The chosen victim is being evicted; unlink it from every policy list.
  virtual void on_evict(mm::ResidentPage& page) = 0;

  /// Scanner feedback: `referenced` is the accessed bit observed (and
  /// cleared) during the periodic scan. Only called when wants_scanner().
  virtual void on_scan(mm::ResidentPage& page, bool referenced) {
    (void)page;
    (void)referenced;
  }

  /// Whether the access-bit scanner daemon must run for this policy.
  virtual bool wants_scanner() const { return false; }

  /// Periodic maintenance at scanner cadence (CMCP aging, dynamic-p
  /// feedback). Runs even when wants_scanner() is false.
  virtual void on_tick(Cycles now) { (void)now; }

  /// Ignored by the library; remains only so bench/suite compiles, and goes
  /// away when a benchmark change retires bt56_cmcp_local_t4.
  virtual bool parallel_local_safe() const { return false; }

  /// Enumerate every policy-specific statistic as (name, value) pairs.
  /// Policies without stats keep the empty default.
  virtual void stats(const StatVisitor& visit) const { (void)visit; }

  /// Number of resident pages this policy currently tracks on its internal
  /// structures, or -1 when unknown (custom policies that don't override).
  /// SimCheck's policy-accounting invariant compares this against the page
  /// registry's resident-set size; every built-in policy reports it.
  virtual std::int64_t tracked_pages() const { return -1; }
};

}  // namespace cmcp::policy
