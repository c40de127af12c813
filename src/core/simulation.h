// Public facade: run one workload on one machine/memory-management
// configuration and collect the observables the paper reports.
//
// The engine is a deterministic virtual-time interleaver: every core owns a
// private cycle clock, and the engine always executes the op of the
// earliest core next (ties broken by core id), so shared-resource queueing
// (PCIe link, page-table locks, invalidation slot) is resolved in a single
// reproducible order. Identical configuration => bit-identical results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/memory_manager.h"
#include "metrics/counters.h"
#include "sim/checker.h"
#include "sim/fault_plan.h"
#include "sim/machine.h"
#include "workloads/access_stream.h"

namespace cmcp::core {

struct SimulationConfig {
  sim::MachineConfig machine;
  PageTableKind pt_kind = PageTableKind::kPspt;
  policy::PolicyParams policy;
  /// When set, overrides `policy` with a user-supplied implementation
  /// (examples/custom_policy.cpp).
  PolicyFactory custom_policy;

  /// Device memory granted to the computation area, as a fraction of its
  /// footprint — the paper's "% of memory provided" axis. Values >= 1 mean
  /// no constraint. Ignored when capacity_units_override != 0.
  double memory_fraction = 1.0;
  std::uint64_t capacity_units_override = 0;

  /// "No data movement" baseline: preload everything into device RAM
  /// (forces effective capacity >= footprint).
  bool preload = false;

  /// Sequential readahead degree on major faults (0 = off).
  unsigned prefetch_degree = 0;

  /// Queue dirty write-backs instead of blocking the evicting core.
  bool async_writeback = false;

  /// Base of the computation area (2 MB aligned so all unit sizes fit).
  Vpn area_base_vpn = 0;

  /// Ignored by the library; remains only so bench/suite compiles, and goes
  /// away when a benchmark change retires bt56_cmcp_local_t4.
  unsigned threads = 1;

  /// Structured event tracing: when non-null, every fault, victim pick,
  /// eviction, shootdown, PCIe transfer, scanner pass and barrier wait is
  /// recorded into this sink (non-owning). Null = tracing disabled; the
  /// hot path then only pays a pointer test at each emit point.
  sim::trace::EventSink* trace = nullptr;

  /// SimCheck: run the default protocol-invariant checkers (src/check/) at
  /// the memory manager's checkpoints and once at end of run. Only
  /// effective when CMCP_SIMCHECK_ENABLED compiles the machinery in; a
  /// violated invariant aborts with a structured diagnostic (override via
  /// Simulation::check_registry()->set_handler). See docs/invariants.md.
  bool simcheck = true;

  /// Deterministic fault injection (docs/robustness.md). Disabled (the
  /// default all-zero-rate config) constructs no plan, so every code path
  /// is the exact pre-fault one — byte-identical traces and summaries.
  /// When disabled here, the CMCP_CHAOS_FAULTS environment variable (a
  /// to_spec()-format string) may inject a plan — the CI chaos job's hook.
  sim::FaultPlanConfig faults;
};

struct SimulationResult {
  Cycles makespan = 0;  ///< max core finish time == runtime
  std::vector<metrics::CoreCounters> per_core;  ///< app cores only
  metrics::CoreCounters app_total;
  metrics::CoreCounters scanner;

  /// Replacement-policy identity and its full statistics (collected through
  /// policy::ReplacementPolicy::stats() at end of run), so exporters can
  /// dump every policy counter without knowing the keys.
  std::string policy_name;
  std::vector<std::pair<std::string, std::uint64_t>> policy_stats;

  std::uint64_t footprint_units = 0;
  std::uint64_t capacity_units = 0;
  std::uint64_t scans = 0;

  /// hist[c] = resident units mapped by exactly c cores at end of run
  /// (Fig. 6 uses unconstrained PSPT runs so this reflects true sharing).
  std::vector<std::uint64_t> sharing_histogram;

  /// Fault-injection accounting (all-zero unless faults_enabled).
  /// fault_config is the EFFECTIVE plan — it reflects CMCP_CHAOS_FAULTS
  /// when the env hook injected one, unlike SimulationConfig::faults.
  bool faults_enabled = false;
  sim::FaultPlanConfig fault_config;
  sim::FaultStats fault_stats;

  double avg_major_faults_per_core() const;
  double avg_remote_invalidations_per_core() const;
  double avg_dtlb_misses_per_core() const;
};

class Simulation {
 public:
  Simulation(const SimulationConfig& config, const wl::Workload& workload);

  /// Run to completion and return the collected results. Single use.
  SimulationResult run();

  /// The machine (for inspection in tests; valid after construction).
  sim::Machine& machine() { return machine_; }
  MemoryManager& memory_manager() { return mm_; }

  /// The SimCheck registry, or null when checking is disabled (config or
  /// CMCP_SIMCHECK=OFF build). Tests use it to install capturing handlers
  /// and to trigger unconditional sweeps.
  sim::CheckRegistry* check_registry() { return checks_.get(); }

  /// The fault plan, or null when fault injection is disabled.
  sim::FaultPlan* fault_plan() { return faults_.get(); }

 private:
  static sim::MachineConfig machine_config_for(const SimulationConfig& config,
                                               const wl::Workload& workload);
  static mm::ComputationArea area_for(const SimulationConfig& config,
                                      const wl::Workload& workload);
  static MemoryManagerConfig mm_config_for(const SimulationConfig& config,
                                           const mm::ComputationArea& area);

  const SimulationConfig config_;
  const wl::Workload& workload_;
  sim::Machine machine_;
  mm::ComputationArea area_;
  MemoryManager mm_;
  /// Null when SimCheck is disabled (by config or compiled out).
  std::unique_ptr<sim::CheckRegistry> checks_;
  /// Null when fault injection is disabled (the common case).
  std::unique_ptr<sim::FaultPlan> faults_;
  bool ran_ = false;
};

/// Convenience: configure + run in one call.
SimulationResult run_simulation(const SimulationConfig& config,
                                const wl::Workload& workload);

}  // namespace cmcp::core
