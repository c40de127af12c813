// Unit-cost parameters of the simulated Knights Corner class machine.
//
// The paper does not claim absolute cycle counts; its results are driven by
// *counts* of events (page faults, remote TLB invalidations, dTLB misses,
// bytes moved over PCIe) multiplied by per-event costs. These costs are
// calibrated to the 5110P: 1.053 GHz in-order cores, ~6 GB/s measured PCIe
// bandwidth (paper section 3), slow 4-level page walks, and IPI round trips
// in the microsecond range as reported for KNC-class interconnects.
//
// The model is one calibrated machine (docs/calibration.md). Only the costs
// the paper's hardware-contingent ablations vary are settable: the five
// shootdown costs (A3, bench/ablation_shootdown_cost) and the scan period
// (A2, bench/ablation_lru_scan_period and `cmcp_sim --scan-ms`). Every other
// cost is a constant of the type.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace cmcp::sim {

struct CostModel {
  // --- core-local memory system -------------------------------------------
  static constexpr Cycles tlb_hit = 1;  ///< translation found in the dTLB
  /// Translation-stall cost charged per dTLB-missing page visit. One "visit"
  /// in the simulation stands for all the scattered references the real
  /// application makes to that page's cache lines, so this is the aggregate
  /// walk cost of a visit, not a single 4-level walk (KNC's in-order cores
  /// stall fully on walks; Table 1's dTLB-miss volumes make translation
  /// ~5-15% of runtime at 4 kB). Larger formats miss 16x / 512x less often
  /// per byte, which is the entire upside of Fig. 10's large pages.
  static constexpr Cycles tlb_walk_4k = 2500;
  static constexpr Cycles tlb_walk_64k = 2500;  ///< 64 kB: the same 4 kB tree
  static constexpr Cycles tlb_walk_2m = 2000;   ///< 2 MB: one level less
  static constexpr Cycles memory_access = 6;    ///< the data reference itself

  // --- fault handling -------------------------------------------------------
  static constexpr Cycles fault_entry = 600;      ///< trap + kernel entry/exit
  static constexpr Cycles pte_setup = 40;         ///< writing one 4 kB PTE
  static constexpr Cycles pte_copy_lookup = 250;  ///< PSPT: other cores' PTEs
  static constexpr Cycles policy_op = 80;         ///< policy bookkeeping

  // --- TLB shootdown (settable: ablation A3 scales all five) ----------------
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
  static constexpr unsigned scanner_threads = 4;
  /// Cleared PTEs the scanner flushes per IPI round (invalidation requests
  /// are queued and batched; receivers INVLPG the whole run at once).
  static constexpr unsigned scanner_flush_batch = 16;

  // --- hypothetical hardware TLB coherence -----------------------------------
  /// Costs of the directory-based remote invalidation hardware the paper's
  /// related work discusses (Villavieja et al., "DiDi", PACT'11) and that
  /// section 2.3 asks vendors for: the initiator writes one directory
  /// command per target core and the hardware drops the entry without
  /// interrupting the receiver.
  static constexpr Cycles hw_inval_lookup = 60;      ///< lookup per unit
  static constexpr Cycles hw_inval_per_target = 40;  ///< per-target invalidate

  // --- page table locking ----------------------------------------------------
  /// Regular page tables serialize fault handling behind an address-space
  /// wide lock; PSPT uses per-core locks with a short critical section.
  static constexpr Cycles regular_pt_lock_hold = 900;
  static constexpr Cycles pspt_lock_hold = 150;

  // --- host <-> device data movement ----------------------------------------
  static constexpr double clock_ghz = 1.053;    ///< core clock, cycles per ns
  static constexpr double pcie_gb_per_s = 6.0;  ///< paper's measured bandwidth
  static constexpr Cycles pcie_setup = 1600;    ///< DMA setup (~1.5 us)

  // --- LRU scanning (scan_period settable: ablation A2) ---------------------
  /// Virtual-time period of the access-bit scanner (paper: 10 ms timer).
  Cycles scan_period = 10'000'000;    ///< 10 ms at ~1 GHz
  static constexpr Cycles scan_pte_read = 25;  ///< read/clear one 4 kB sub-PTE

  /// Cycles to transfer `bytes` over PCIe excluding queueing and setup.
  static Cycles pcie_transfer_cycles(std::uint64_t bytes) {
    const double ns = static_cast<double>(bytes) / pcie_gb_per_s;  // GB/s == B/ns
    return static_cast<Cycles>(ns * clock_ghz);
  }

  static Cycles walk_cost(PageSizeClass c) {
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
  static Cycles map_cost(PageSizeClass c) {
    switch (c) {
      case PageSizeClass::k4K: return pte_setup;
      case PageSizeClass::k64K: return pte_setup * 16;
      case PageSizeClass::k2M: return pte_setup;
    }
    return pte_setup;
  }
};

}  // namespace cmcp::sim
