// Multi-tenant vocabulary: N workloads, each in its own core::AddressSpace,
// contending for one shared frame pool and one sim::Machine under a
// frame-partition (QoS) policy.
//
// These are the config and result types of core::Simulation's tenant-list
// constructor (core/simulation.h), which owns every run; run_multi_tenant is
// the configure + run convenience over it. Barriers synchronize only WITHIN
// a tenant (each workload's barrier group is its own core block) and each
// tenant finishes independently. A one-tenant kNone run is exactly the
// single-tenant core::Simulation. Identical configuration => bit-identical
// results and traces, tenants included.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/memory_manager.h"
#include "metrics/counters.h"
#include "mm/frame_partition.h"
#include "sim/fault_plan.h"
#include "sim/machine.h"
#include "workloads/multi_tenant.h"

namespace cmcp::core {

/// Core-layer knobs for one tenant (the workload itself lives in the
/// wl::MultiTenantSpec at the same index).
struct TenantRunConfig {
  PageTableKind pt_kind = PageTableKind::kPspt;
  policy::PolicyParams policy;
  /// When set, overrides `policy` with a user-supplied implementation.
  PolicyFactory custom_policy;
};

struct MultiTenantConfig {
  /// num_cores is derived from the tenant placements, and the machine gets
  /// one address space per tenant.
  sim::MachineConfig machine;
  mm::PartitionKind partition = mm::PartitionKind::kNone;

  /// Shared device capacity as a fraction of the COMBINED footprint (>= 1
  /// means unconstrained).
  double memory_fraction = 1.0;

  /// Structured event tracing (non-owning; null = disabled). Events carry
  /// each tenant's asid and the exporters serialize it (spaces > 1).
  sim::trace::EventSink* trace = nullptr;

  /// SimCheck protocol-invariant sweeps (see core::SimulationConfig).
  bool simcheck = true;

  /// Deterministic fault injection (docs/robustness.md); same semantics as
  /// core::SimulationConfig::faults, including the CMCP_CHAOS_FAULTS
  /// environment fallback when disabled here.
  sim::FaultPlanConfig faults;
};

/// Per-tenant observables of one multi-tenant run.
struct TenantResult {
  std::string workload_name;
  std::string policy_name;
  CoreId first_core = 0;
  CoreId num_cores = 0;
  Cycles makespan = 0;  ///< max finish time over this tenant's cores
  metrics::CoreCounters total;  ///< summed over this tenant's app cores
  metrics::CoreCounters scanner;
  std::vector<std::pair<std::string, std::uint64_t>> policy_stats;
  std::uint64_t footprint_units = 0;
  std::uint64_t capacity_target_units = 0;  ///< partition target
  std::uint64_t resident_units_end = 0;     ///< frames held at end of run
  std::uint64_t scans = 0;
};

struct MultiTenantResult {
  Cycles makespan = 0;  ///< max over all cores == machine runtime
  std::vector<TenantResult> tenants;
  /// Flattened [cause][receiver] matrix: remote TLB entries invalidated on
  /// `receiver`'s cores by shootdowns `cause` initiated (row-major,
  /// interference[cause * tenants.size() + receiver]).
  std::vector<std::uint64_t> interference;
  std::uint64_t shared_capacity_units = 0;
  std::string partition_kind;

  /// Fault-injection accounting (all-zero unless faults_enabled). The
  /// per-asid vectors in fault_stats are the per-tenant blast radius.
  /// fault_config is the EFFECTIVE plan — it reflects CMCP_CHAOS_FAULTS
  /// when the env hook injected one, unlike MultiTenantConfig::faults.
  bool faults_enabled = false;
  sim::FaultPlanConfig fault_config;
  sim::FaultStats fault_stats;
};

/// Convenience: build the N-tenant core::Simulation and run it to completion.
/// `tenant_configs` must have one entry per tenant in `spec` (asid order).
MultiTenantResult run_multi_tenant(const MultiTenantConfig& config,
                                   const wl::MultiTenantSpec& spec,
                                   const std::vector<TenantRunConfig>& tenant_configs);

}  // namespace cmcp::core
