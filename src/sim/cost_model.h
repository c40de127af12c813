// Unit-cost parameters of the simulated Knights Corner class machine.
//
// The paper does not claim absolute cycle counts; its results are driven by
// *counts* of events (page faults, remote TLB invalidations, dTLB misses,
// bytes moved over PCIe) multiplied by per-event costs. These defaults are
// calibrated to the 5110P: 1.053 GHz in-order cores, ~6 GB/s measured PCIe
// bandwidth (paper section 3), slow 4-level page walks, and IPI round trips
// in the microsecond range as reported for KNC-class interconnects.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace cmcp::sim {

struct CostModel {
  // --- core-local memory system -------------------------------------------
  Cycles tlb_hit = 1;  ///< translation found in the dTLB
  /// Translation-stall cost charged per dTLB-missing page visit. One "visit"
  /// in the simulation stands for all the scattered references the real
  /// application makes to that page's cache lines, so this is the aggregate
  /// walk cost of a visit, not a single 4-level walk (KNC's in-order cores
  /// stall fully on walks; Table 1's dTLB-miss volumes make translation
  /// ~5-15% of runtime at 4 kB). Larger formats miss 16x / 512x less often
  /// per byte, which is the entire upside of Fig. 10's large pages.
  Cycles tlb_walk_4k = 2500;
  Cycles tlb_walk_64k = 2500;  ///< 64 kB groups walk the same 4 kB tree
  Cycles tlb_walk_2m = 2000;   ///< 2 MB entries terminate one level early
  Cycles memory_access = 6;    ///< cost of the data reference itself

  // --- fault handling -------------------------------------------------------
  Cycles fault_entry = 600;      ///< trap + kernel entry/exit on a fault
  Cycles pte_setup = 40;         ///< writing one 4 kB PTE
  Cycles pte_copy_lookup = 250;  ///< PSPT: consulting other cores' tables
  Cycles policy_op = 80;         ///< replacement-policy bookkeeping per fault

  // --- TLB shootdown ---------------------------------------------------------
  Cycles ipi_initiate = 600;     ///< initiator-side setup of one shootdown
  Cycles ipi_per_target = 250;   ///< per-target cost of the IPI loop
  /// Interrupt handling at each receiver (invalidation requests are queued,
  /// so one interrupt may drain several; this is the amortized cost).
  Cycles ipi_receive = 1400;
  Cycles invlpg = 40;            ///< one INVLPG at the receiver
  /// Base hold of the serialized invalidation-request slot; the slot is
  /// additionally held for the IPI send loop (ipi_initiate +
  /// ipi_per_target * targets), so concurrent shootdowns convoy — the lock
  /// whose cycles grew up to 8x under LRU in the paper's section 5.5.
  Cycles inval_slot_hold = 600;
  /// Dedicated hyperthreads running the access-bit scanner (paper 5.1:
  /// "we dedicated some of the hyperthreads to the page usage statistics
  /// collection"). Scan work parallelizes across them; their shootdowns
  /// still serialize on the invalidation slot.
  unsigned scanner_threads = 4;
  /// Cleared PTEs the scanner flushes per IPI round (invalidation requests
  /// are queued and batched; receivers INVLPG the whole run at once).
  unsigned scanner_flush_batch = 16;

  // --- hypothetical hardware TLB coherence -----------------------------------
  /// Costs of the directory-based remote invalidation hardware the paper's
  /// related work discusses (Villavieja et al., "DiDi", PACT'11) and that
  /// section 2.3 asks vendors for: the initiator writes one directory
  /// command per target core and the hardware drops the entry without
  /// interrupting the receiver.
  Cycles hw_inval_lookup = 60;      ///< directory lookup per invalidation
  Cycles hw_inval_per_target = 40;  ///< per-target directed invalidate

  // --- page table locking ----------------------------------------------------
  /// Regular page tables serialize fault handling behind an address-space
  /// wide lock; PSPT uses per-core locks with a short critical section.
  Cycles regular_pt_lock_hold = 900;
  Cycles pspt_lock_hold = 150;

  // --- host <-> device data movement ----------------------------------------
  double clock_ghz = 1.053;           ///< core clock, cycles per ns
  double pcie_gb_per_s = 6.0;         ///< paper's measured bandwidth
  Cycles pcie_setup = 1600;           ///< per-transfer DMA setup (~1.5 us)

  // --- LRU scanning -----------------------------------------------------------
  /// Virtual-time period of the access-bit scanner (paper: 10 ms timer).
  Cycles scan_period = 10'000'000;    ///< 10 ms at ~1 GHz
  Cycles scan_pte_read = 25;          ///< reading/clearing one 4 kB sub-PTE

  /// Cycles to transfer `bytes` over PCIe excluding queueing and setup.
  Cycles pcie_transfer_cycles(std::uint64_t bytes) const {
    const double ns = static_cast<double>(bytes) / pcie_gb_per_s;  // GB/s == B/ns
    return static_cast<Cycles>(ns * clock_ghz);
  }

  Cycles walk_cost(PageSizeClass c) const {
    switch (c) {
      case PageSizeClass::k4K: return tlb_walk_4k;
      case PageSizeClass::k64K: return tlb_walk_64k;
      case PageSizeClass::k2M: return tlb_walk_2m;
    }
    return tlb_walk_4k;
  }

  /// Cost of writing the PTEs that define one mapping unit. 64 kB units
  /// require initializing all 16 grouped 4 kB entries (paper section 4);
  /// a 2 MB unit is a single PDE.
  Cycles map_cost(PageSizeClass c) const {
    switch (c) {
      case PageSizeClass::k4K: return pte_setup;
      case PageSizeClass::k64K: return pte_setup * 16;
      case PageSizeClass::k2M: return pte_setup;
    }
    return pte_setup;
  }

  /// Default model of the evaluated 5110P card.
  static CostModel knc();
};

}  // namespace cmcp::sim
