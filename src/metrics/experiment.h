// Experiment runner shared by the bench binaries: one RunSpec describes one
// cell of a paper figure/table; run_spec() builds the workload + simulation
// and returns the observables.
#pragma once

#include <utility>
#include <vector>

#include "core/simulation.h"
#include "sim/trace.h"
#include "workloads/workload_factory.h"

namespace cmcp::metrics {

struct RunSpec {
  wl::PaperWorkload workload = wl::PaperWorkload::kCg;
  wl::WorkloadSize size = wl::WorkloadSize::kSmall;
  CoreId cores = 56;
  PageTableKind pt_kind = PageTableKind::kPspt;
  policy::PolicyParams policy;
  /// Memory provided as a fraction of the footprint; <= 0 selects the
  /// paper's per-workload constraint (section 5.4).
  double memory_fraction = -1.0;
  bool preload = false;  ///< no-data-movement baseline
  PageSizeClass page_size = PageSizeClass::k4K;
  std::uint64_t seed = 1234;
  /// Footprint multiplier override (0 = workload-size default).
  double scale = 0.0;

  /// Deterministic fault injection (docs/robustness.md). Default-disabled:
  /// the run then takes the exact pre-fault code paths and emits
  /// byte-identical artifacts. Serialized in describe() only when enabled,
  /// so legacy trace headers stay unchanged.
  sim::FaultPlanConfig faults;

  /// Registers the SimCheck invariant checkpoints (no-op in CMCP_SIMCHECK=
  /// OFF builds). An execution knob, not experiment identity: checkpoints
  /// are pure observers, so describe() omits it.
  bool simcheck = true;

  /// The full simulation configuration this spec denotes. Together with
  /// describe(), a RunSpec round-trips: to_config() is the executable form,
  /// describe() the serialized one.
  core::SimulationConfig to_config() const;

  /// Every field as ordered (name, value) pairs — the trace/JSON metadata
  /// header, so an exported artifact records exactly which cell of which
  /// figure produced it.
  sim::trace::Metadata describe() const;
};

/// Build the workload and run the full simulation for one spec.
core::SimulationResult run_spec(const RunSpec& spec);

/// Headline counters of a result as ordered (name, value) pairs, policy
/// stats included under a "policy." prefix — the JSONL trace summary and
/// the machine-readable exports share this one list.
sim::trace::Summary result_summary(const core::SimulationResult& result);

/// baseline runtime / run runtime — "relative performance" in the paper's
/// figures (1.0 == as fast as the unconstrained baseline).
double relative_performance(const core::SimulationResult& baseline,
                            const core::SimulationResult& run);

}  // namespace cmcp::metrics
