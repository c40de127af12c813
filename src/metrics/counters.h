// Per-core event counters — the observables of Table 1 plus the cycle
// breakdown used in section 5.5's analysis of LRU.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace cmcp::metrics {

struct CoreCounters {
  // Event counts (Table 1 columns).
  std::uint64_t accesses = 0;
  std::uint64_t dtlb_misses = 0;
  std::uint64_t major_faults = 0;  ///< "page faults" in Table 1: data movement
  std::uint64_t minor_faults = 0;  ///< PSPT PTE-copy faults (no data movement)
  /// Invalidation requests received from other cores ("remote TLB
  /// invalidations" in Table 1) — one per (shootdown, unit) pair.
  std::uint64_t remote_invalidations_received = 0;
  std::uint64_t ipis_received = 0;
  std::uint64_t shootdowns_initiated = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetches = 0;     ///< readahead transfers issued
  std::uint64_t prefetch_hits = 0;  ///< first touches served by readahead

  // Data movement.
  std::uint64_t pcie_bytes_in = 0;   ///< host -> device (page fetch)
  std::uint64_t pcie_bytes_out = 0;  ///< device -> host (dirty write-back)

  // Fault injection (zero unless a sim::FaultPlan is attached).
  std::uint64_t faults_injected = 0;  ///< faults observed on this core
  std::uint64_t fault_retries = 0;    ///< recovery retries performed
  std::uint64_t fault_give_ups = 0;   ///< retry budgets exhausted

  // Cycle breakdown.
  Cycles cycles_compute = 0;     ///< workload compute ops
  Cycles cycles_mem = 0;         ///< TLB hits/walks + data references
  /// The fault handler's own work (entry, PTE copy, map, lock hold, policy
  /// bookkeeping, local INVLPG). The waits, shootdowns and recovery inside
  /// a fault are charged to their own buckets below, never here too.
  Cycles cycles_fault = 0;
  /// Waiting on the shared PCIe link: queueing plus the transfer that
  /// lands. Failed attempts and their backoff are cycles_recovery.
  Cycles cycles_pcie_wait = 0;
  Cycles cycles_shootdown = 0;   ///< initiating shootdowns
  Cycles cycles_interrupt = 0;   ///< servicing remote invalidation IPIs
  Cycles cycles_lock_wait = 0;   ///< page-table and invalidation-slot locks
  Cycles cycles_barrier = 0;     ///< idle at workload barriers
  /// Never charged: no op offloads a system call. Remains only so
  /// bench/suite compiles, and goes away when a benchmark change drops its
  /// syscall cycle share.
  Cycles cycles_syscall = 0;
  Cycles cycles_recovery = 0;    ///< retry/backoff/quarantine recovery cost
  Cycles cycles_straggler = 0;   ///< extra cycles from straggler inflation

  /// Sum of the cycle buckets. Each cycle a core's clock advances lands in
  /// exactly one bucket, so for an app core this equals its clock at the
  /// end of a run (SimCheck's cycle-crossfoot). A scanner pseudo-core's
  /// clock also jumps idle to each scan tick, which no bucket records.
  Cycles cycles_total() const {
    return cycles_compute + cycles_mem + cycles_fault + cycles_pcie_wait +
           cycles_shootdown + cycles_interrupt + cycles_lock_wait +
           cycles_barrier + cycles_syscall + cycles_recovery + cycles_straggler;
  }

  CoreCounters& operator+=(const CoreCounters& o) {
    accesses += o.accesses;
    dtlb_misses += o.dtlb_misses;
    major_faults += o.major_faults;
    minor_faults += o.minor_faults;
    remote_invalidations_received += o.remote_invalidations_received;
    ipis_received += o.ipis_received;
    shootdowns_initiated += o.shootdowns_initiated;
    evictions += o.evictions;
    writebacks += o.writebacks;
    prefetches += o.prefetches;
    prefetch_hits += o.prefetch_hits;
    pcie_bytes_in += o.pcie_bytes_in;
    pcie_bytes_out += o.pcie_bytes_out;
    faults_injected += o.faults_injected;
    fault_retries += o.fault_retries;
    fault_give_ups += o.fault_give_ups;
    cycles_compute += o.cycles_compute;
    cycles_mem += o.cycles_mem;
    cycles_fault += o.cycles_fault;
    cycles_pcie_wait += o.cycles_pcie_wait;
    cycles_shootdown += o.cycles_shootdown;
    cycles_interrupt += o.cycles_interrupt;
    cycles_lock_wait += o.cycles_lock_wait;
    cycles_barrier += o.cycles_barrier;
    cycles_syscall += o.cycles_syscall;
    cycles_recovery += o.cycles_recovery;
    cycles_straggler += o.cycles_straggler;
    return *this;
  }

  bool operator==(const CoreCounters&) const = default;
};

}  // namespace cmcp::metrics
