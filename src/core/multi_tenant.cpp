#include "core/multi_tenant.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "check/invariant_checkers.h"
#include "common/assert.h"
#include "core/engine.h"

namespace cmcp::core {

namespace {

std::uint64_t shared_capacity_for(const MultiTenantConfig& config,
                                  const std::vector<mm::ComputationArea>& areas) {
  if (config.capacity_units_override != 0) return config.capacity_units_override;
  std::uint64_t total_units = 0;
  for (const mm::ComputationArea& a : areas) total_units += a.num_units();
  const double frac = std::max(config.memory_fraction, 0.0);
  const auto cap = static_cast<std::uint64_t>(
      std::ceil(frac * static_cast<double>(total_units)));
  return std::max<std::uint64_t>(cap, 1);
}

}  // namespace

MultiTenantResult run_multi_tenant(const MultiTenantConfig& config,
                                   const wl::MultiTenantSpec& spec,
                                   const std::vector<TenantRunConfig>& tenant_configs) {
  const auto num_tenants = static_cast<Asid>(spec.num_tenants());
  CMCP_CHECK(num_tenants > 0);
  CMCP_CHECK_MSG(tenant_configs.size() == num_tenants,
                 "one TenantRunConfig per tenant, in asid order");

  // --- machine: all tenants' core blocks + one scanner pseudo-core each ----
  sim::MachineConfig mc = config.machine;
  mc.num_cores = spec.total_cores();
  mc.num_address_spaces = num_tenants;
  sim::Machine machine(mc);
  for (Asid t = 0; t < num_tenants; ++t) {
    const wl::TenantPlacement p = spec.placement(t);
    for (CoreId c = 0; c < p.num_cores; ++c)
      machine.set_core_space(p.first_core + c, t);
  }

  // --- address spaces over one shared allocator ----------------------------
  std::vector<mm::ComputationArea> areas;
  areas.reserve(num_tenants);
  for (Asid t = 0; t < num_tenants; ++t) {
    const wl::TenantPlacement p = spec.placement(t);
    areas.emplace_back(p.area_base_vpn, p.footprint_base_pages,
                       mc.page_size);
  }
  const std::uint64_t capacity = shared_capacity_for(config, areas);

  std::vector<AddressSpaceSpec> specs;
  specs.reserve(num_tenants);
  for (Asid t = 0; t < num_tenants; ++t) {
    AddressSpaceSpec s;
    s.area = areas[t];
    s.config.pt_kind = tenant_configs[t].pt_kind;
    s.config.policy = tenant_configs[t].policy;
    s.config.custom_policy = tenant_configs[t].custom_policy;
    s.config.prefetch_degree = tenant_configs[t].prefetch_degree;
    s.config.async_writeback = tenant_configs[t].async_writeback;
    s.config.capacity_units = tenant_configs[t].capacity_units;
    s.share = tenant_configs[t].share;
    specs.push_back(std::move(s));
  }
  MemoryManager mm(machine, specs, capacity, config.partition);

  if (config.trace != nullptr) {
    config.trace->set_num_app_cores(machine.num_cores());
    config.trace->set_num_spaces(num_tenants);
    machine.set_trace(config.trace);
  }
  sim::FaultPlanConfig fault_config = config.faults;
  if (!fault_config.enabled()) {
    // CI chaos hook — see core::Simulation's constructor.
    if (const char* env = std::getenv("CMCP_CHAOS_FAULTS");
        env != nullptr && *env != '\0') {
      CMCP_CHECK_MSG(sim::FaultPlanConfig::parse(env, &fault_config),
                     "malformed CMCP_CHAOS_FAULTS spec");
    }
  }
  std::unique_ptr<sim::FaultPlan> faults;
  if (fault_config.enabled()) {
    faults = std::make_unique<sim::FaultPlan>(fault_config);
    faults->select_poison(mm.capacity_units(),
                          mm.allocator().frames_per_unit());
    machine.set_fault_plan(faults.get());
  }
  std::unique_ptr<sim::CheckRegistry> checks;
#if CMCP_SIMCHECK_ENABLED
  if (config.simcheck) {
    checks = std::make_unique<sim::CheckRegistry>();
    check::register_default_checkers(*checks, mm, machine);
    checks->set_event_source(config.trace);
    mm.set_check_registry(checks.get());
  }
#endif

  // --- the deterministic interleaving engine -------------------------------
  // The shared engine (core/engine.h), with one barrier group per tenant:
  // barriers synchronize only within a tenant's core block, and each tenant
  // finishes independently.
  const CoreId n = machine.num_cores();
  std::vector<EngineCoreInit> cores(n);
  std::vector<EngineGroup> groups(num_tenants);
  for (Asid t = 0; t < num_tenants; ++t) {
    const wl::TenantPlacement p = spec.placement(t);
    groups[t] = {p.first_core, p.num_cores};
    for (CoreId c = 0; c < p.num_cores; ++c) {
      EngineCoreInit& init = cores[p.first_core + c];
      init.stream = spec.tenant(t).make_stream(c);
      init.tenant = t;
      init.area_base = p.area_base_vpn;
    }
  }
  run_engine(machine, mm, cores, groups);
  if (checks != nullptr) checks->run_now(sim::CheckPoint::kEndOfRun);

  // --- collect -------------------------------------------------------------
  MultiTenantResult result;
  result.shared_capacity_units = capacity;
  result.partition_kind = std::string(mm::to_string(config.partition));
  result.interference = mm.interference();
  result.tenants.resize(num_tenants);
  for (Asid t = 0; t < num_tenants; ++t) {
    const EngineGroup& g = groups[t];
    TenantResult& tr = result.tenants[t];
    const AddressSpace& space = mm.space(t);
    tr.workload_name = std::string(spec.tenant(t).name());
    tr.policy_name = std::string(space.policy().name());
    tr.first_core = g.first_core;
    tr.num_cores = g.num_cores;
    for (CoreId c = g.first_core; c < g.first_core + g.num_cores; ++c) {
      tr.makespan = std::max(tr.makespan, machine.clock(c));
      tr.total += machine.counters(c);
    }
    tr.scanner = machine.counters(machine.scanner_core(t));
    space.policy().stats([&](std::string_view name, std::uint64_t value) {
      tr.policy_stats.emplace_back(std::string(name), value);
    });
    tr.footprint_units = space.area().num_units();
    tr.capacity_target_units = mm.partition().target_of(t);
    tr.reserve_units = mm.partition().reserve_of(t);
    tr.resident_units_end = mm.allocator().in_use_by(t);
    tr.scans = space.scans_completed();
    result.makespan = std::max(result.makespan, tr.makespan);
  }
  if (faults != nullptr) {
    result.faults_enabled = true;
    result.fault_config = faults->config();
    result.fault_stats = faults->stats();
  }
  return result;
}

}  // namespace cmcp::core
