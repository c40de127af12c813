// The one owner of a simulation run.
//
// A run is a list of tenants on one sim::Machine: each tenant is a workload
// with its own contiguous core block and core::AddressSpace, and all of them
// contend for one shared frame pool, PCIe link and invalidation slot under a
// frame-partition (QoS) policy. The paper's setting — one OS memory manager
// owning one computation area — is the one-tenant, PartitionKind::kNone case:
// Simulation(SimulationConfig, Workload) translates its config into exactly
// that tenant list, and run_multi_tenant (core/multi_tenant.h) is an
// N-tenant Simulation.
//
// Setup happens here once for every run: the machine, the memory manager,
// trace wiring, the fault plan (including the CMCP_CHAOS_FAULTS hook) and
// the SimCheck registry. The run itself is the shared deterministic
// virtual-time engine (core/engine.h) with one barrier group per tenant:
// every core owns a private cycle clock, and the engine always executes the
// op of the earliest core next (ties broken by core id), so shared-resource
// queueing resolves in a single reproducible order. Identical configuration
// => bit-identical results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/memory_manager.h"
#include "core/multi_tenant.h"
#include "metrics/counters.h"
#include "sim/checker.h"
#include "sim/fault_plan.h"
#include "sim/machine.h"
#include "workloads/access_stream.h"

namespace cmcp::core {

struct SimulationConfig {
  /// machine.num_cores is replaced by the workload's core count.
  sim::MachineConfig machine;
  PageTableKind pt_kind = PageTableKind::kPspt;
  policy::PolicyParams policy;
  /// When set, overrides `policy` with a user-supplied implementation
  /// (examples/custom_policy.cpp).
  PolicyFactory custom_policy;

  /// Device memory granted to the computation area, as a fraction of its
  /// footprint — the paper's "% of memory provided" axis. Values >= 1 mean
  /// no constraint.
  double memory_fraction = 1.0;

  /// "No data movement" baseline: preload everything into device RAM
  /// (forces effective capacity >= footprint).
  bool preload = false;

  /// Sequential readahead degree on major faults (0 = off).
  unsigned prefetch_degree = 0;

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
  /// The paper's single-tenant run: one PartitionKind::kNone tenant owning
  /// every core, with the capacity derived from `config`.
  Simulation(const SimulationConfig& config, const wl::Workload& workload);

  /// A multi-tenant run: `tenant_configs` has one entry per tenant in `spec`
  /// (asid order). `spec` must outlive the Simulation.
  Simulation(const MultiTenantConfig& config, const wl::MultiTenantSpec& spec,
             const std::vector<TenantRunConfig>& tenant_configs);

  /// Run a one-tenant simulation to completion and return its result.
  /// Single use (shared with run_tenants()).
  SimulationResult run();

  /// Run to completion and return every tenant's result. Single use.
  MultiTenantResult run_tenants();

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
  /// One tenant's workload (non-owning) and where it landed.
  struct Tenant {
    const wl::Workload* workload = nullptr;
    wl::TenantPlacement placement;
  };
  /// Everything the shared setup needs, whichever constructor built it.
  struct Setup;

  explicit Simulation(Setup setup);

  /// Drive the engine over every tenant, then the end-of-run SimCheck sweep.
  void execute();
  TenantResult collect_tenant(Asid asid) const;

  std::vector<Tenant> tenants_;
  sim::Machine machine_;
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
