// sim::FaultPlan — seeded, virtual-time-deterministic fault injection.
//
// A FaultPlan perturbs the machine model with four failure modes drawn from
// real tiered-memory deployments:
//
//   kPcieTransient   a PCIe transfer fails once, then succeeds on retry
//   kPcieSticky      a PCIe transfer keeps failing until the retry budget is
//                    exhausted; recovery resets the link and replays
//   kShootdownAck    a TLB-shootdown acknowledgement is lost; the initiator
//                    times out, re-sends the (idempotent) IPI round, and at
//                    the budget polls remote state directly
//   kEccPoison       a device frame is ECC-poisoned; the poison surfaces the
//                    moment data lands on it (at allocation) or when it is
//                    next touched by the eviction path (latent), and the
//                    frame is quarantined out of the allocator
//   kStraggler       a core's memory-access cost is inflated by an integer
//                    multiplier for a window of virtual time
//
// Determinism contract: every decision is drawn from seeded per-kind
// cmcp::Rng streams (or a pure hash of (seed, core, window) for
// stragglers), all costs are integer virtual cycles, and a plan belongs to
// one simulation on one host thread — so a fixed (workload seed,
// FaultPlanConfig) pair replays bit-identically, including across `-j`
// parallel_runner execution where each simulation owns a private plan. No
// wallclock anywhere (cmcp_lint enforces this repo-wide).
//
// The plan only injects; recovery lives where the paper's protocol lives —
// PcieLink replays transfers, Machine re-sends IPI rounds, AddressSpace /
// FrameAllocator quarantine poisoned frames and re-allocate. See
// docs/robustness.md for the recovery state machine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace cmcp::sim {

enum class FaultKind : std::uint8_t {
  kPcieTransient = 0,
  kPcieSticky = 1,
  kShootdownAck = 2,
  kEccPoison = 3,
  kStraggler = 4,
};

inline constexpr unsigned kNumFaultKinds = 5;

std::string_view to_string(FaultKind kind);

/// All knobs of a fault schedule. Round-trips through to_spec()/parse()
/// (the CLI `--faults=` value and the RunSpec metadata entry), so a trace
/// header fully reproduces the schedule.
struct FaultPlanConfig {
  std::uint64_t seed = 1;         ///< seeds the per-kind decision streams

  // Per-kind incidence. Rates are probabilities per opportunity (one PCIe
  // transfer, one shootdown ack wait, one (core, window) pair); poison is an
  // absolute frame count drawn once at startup.
  double pcie_transient_rate = 0.0;
  double pcie_sticky_rate = 0.0;
  double shootdown_ack_rate = 0.0;
  std::uint64_t poison_frames = 0;
  double straggler_rate = 0.0;

  // Recovery protocol constants (virtual cycles; never wallclock).
  static constexpr unsigned kMaxRetries = 6;  ///< retry budget per operation
  static constexpr Cycles kBackoffBase = 2'000;  ///< first backoff; doubles
  static constexpr Cycles kBackoffCap = 1'000'000;  ///< backoff saturates here
  static constexpr Cycles kLinkResetCycles = 200'000;  ///< sticky-PCIe give-up
  static constexpr Cycles kEccDetectCycles = 5'000;  ///< retire a poisoned frame
  static constexpr unsigned kStragglerMult = 4;  ///< access-cost multiplier
  static constexpr Cycles kStragglerWindow = 2'000'000;  ///< window length

  /// A plan with nothing to inject. Disabled plans are never constructed, so
  /// the simulation takes the exact pre-fault code paths (byte-identical
  /// traces and summaries).
  bool enabled() const {
    return pcie_transient_rate > 0.0 || pcie_sticky_rate > 0.0 ||
           shootdown_ack_rate > 0.0 || poison_frames > 0 ||
           straggler_rate > 0.0;
  }

  /// Exponential backoff before retry `attempt` (1-based):
  /// min(kBackoffBase << (attempt - 1), kBackoffCap).
  static Cycles backoff(unsigned attempt);

  /// Canonical spec string, e.g. "seed=7,pcie=0.01,sticky=0,ack=0,poison=2,
  /// straggler=0"; parse(to_spec()) is the identity.
  std::string to_spec() const;

  /// Parse a spec string (comma-separated key=value) into `out`, which is
  /// default-initialized first. Returns the empty string on success, else
  /// the offending entry and what is wrong with it, e.g.
  /// "'pcie=2': pcie must be in [0, 1]".
  static std::string parse(std::string_view spec, FaultPlanConfig* out);
};

/// Aggregate fault/recovery accounting for the resilience report.
struct FaultStats {
  std::uint64_t injected[kNumFaultKinds] = {};
  std::uint64_t retries = 0;
  std::uint64_t give_ups = 0;
  std::uint64_t frames_quarantined = 0;
  Cycles recovery_cycles = 0;   ///< extra cycles spent recovering
  Cycles straggler_cycles = 0;  ///< inflation endured in straggler windows
  /// Per-tenant blast radius, indexed by asid (grown on demand).
  std::vector<std::uint64_t> per_asid_faults;
  std::vector<Cycles> per_asid_recovery;

  std::uint64_t total_injected() const {
    std::uint64_t total = 0;
    for (const std::uint64_t n : injected) total += n;
    return total;
  }

  bool operator==(const FaultStats&) const = default;
};

/// Live injection state for one simulation.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultPlanConfig& config);

  const FaultPlanConfig& config() const { return config_; }

  /// Decision for the next PCIe transfer, drawn once per transfer.
  struct PcieDecision {
    unsigned failures = 0;  ///< failed attempts before the data lands
    bool sticky = false;    ///< budget exhausted; link reset taken
  };
  PcieDecision next_pcie();

  /// One ack-wait decision: true = this round's acknowledgement is lost.
  bool next_ack_lost();

  /// Draw `poison_frames` distinct frame slots from [0, capacity_units).
  /// Each is 50/50 at-allocation vs latent (surfaces on eviction touch).
  /// Called once by the simulation constructor; pfns are slot *
  /// frames_per_unit, matching FrameAllocator's layout.
  void select_poison(std::uint64_t capacity_units,
                     std::uint64_t frames_per_unit);

  /// Does ECC poison surface when data first lands on `pfn`? Consumes the
  /// poison: subsequent calls for the same frame return false.
  bool surfaces_at_alloc(Pfn pfn);

  /// Does latent ECC poison surface when the eviction path touches `pfn`?
  bool surfaces_at_evict(Pfn pfn);

  /// Access-cost multiplier for `core` at virtual time `now` (1 = healthy).
  /// `window_start` is set on the first query of an afflicted (core, window)
  /// pair, so the caller emits exactly one inject event per window. The
  /// decision itself is a pure hash of (seed, core, window index): no state,
  /// no draw-order dependence.
  unsigned straggler_mult_at(CoreId core, Cycles now, bool* window_start);

  // -- accounting (called by the recovery sites) ----------------------------
  void record(FaultKind kind, Asid asid, std::uint64_t injected,
              std::uint64_t retries, bool gave_up, Cycles recovery_cycles);
  void record_quarantine();
  void record_straggler_cycles(Cycles extra);

  const FaultStats& stats() const { return stats_; }

 private:
  struct Poison {
    Pfn pfn = kInvalidPfn;
    bool latent = false;    ///< surfaces on eviction touch, not allocation
    bool surfaced = false;  ///< consumed (frame already quarantined)
  };

  const FaultPlanConfig config_;
  Rng pcie_rng_;
  Rng ack_rng_;
  Rng ecc_rng_;
  std::vector<Poison> poison_;
  /// Last straggler window index a start event was emitted for, per core.
  std::vector<std::uint64_t> straggler_emitted_;
  FaultStats stats_;
};

}  // namespace cmcp::sim
