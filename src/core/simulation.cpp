#include "core/simulation.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "check/invariant_checkers.h"
#include "common/assert.h"
#include "core/engine.h"

namespace cmcp::core {

namespace {

/// The configured plan, or — when it is disabled — the CMCP_CHAOS_FAULTS
/// environment plan. CI chaos hook: an explicitly configured plan always
/// wins, but a run with faults off picks up the variable so the whole fast
/// suite can be replayed under a fault mix without touching each test.
sim::FaultPlanConfig effective_faults(const sim::FaultPlanConfig& configured) {
  sim::FaultPlanConfig fc = configured;
  if (!fc.enabled()) {
    if (const char* env = std::getenv("CMCP_CHAOS_FAULTS");
        env != nullptr && *env != '\0') {
      const std::string error = sim::FaultPlanConfig::parse(env, &fc);
      CMCP_CHECK_MSG(error.empty(),
                     ("malformed CMCP_CHAOS_FAULTS spec: " + error).c_str());
    }
  }
  return fc;
}

/// Fault-injection accounting shared by both result shapes.
template <typename Result>
void collect_faults(const sim::FaultPlan* faults, Result& result) {
  if (faults == nullptr) return;
  result.faults_enabled = true;
  result.fault_config = faults->config();
  result.fault_stats = faults->stats();
}

}  // namespace

double SimulationResult::avg_major_faults_per_core() const {
  if (per_core.empty()) return 0.0;
  return static_cast<double>(app_total.major_faults) /
         static_cast<double>(per_core.size());
}

double SimulationResult::avg_remote_invalidations_per_core() const {
  if (per_core.empty()) return 0.0;
  return static_cast<double>(app_total.remote_invalidations_received) /
         static_cast<double>(per_core.size());
}

double SimulationResult::avg_dtlb_misses_per_core() const {
  if (per_core.empty()) return 0.0;
  return static_cast<double>(app_total.dtlb_misses) /
         static_cast<double>(per_core.size());
}

/// The tenant list both public constructors translate into.
struct Simulation::Setup {
  Setup(const SimulationConfig& config, const wl::Workload& workload)
      : machine(config.machine),
        trace(config.trace),
        simcheck(config.simcheck),
        faults(config.faults) {
    wl::TenantPlacement placement;
    placement.num_cores = workload.num_cores();
    placement.footprint_base_pages = workload.footprint_base_pages();
    MemoryManagerConfig mmc;
    mmc.pt_kind = config.pt_kind;
    mmc.policy = config.policy;
    mmc.custom_policy = config.custom_policy;
    mmc.preload = config.preload;
    mmc.prefetch_degree = config.prefetch_degree;
    add_tenant(workload, placement, mmc);

    capacity_units = shared_capacity(config.memory_fraction);
    if (config.preload)
      capacity_units = std::max(capacity_units, specs[0].area.num_units());
  }

  Setup(const MultiTenantConfig& config, const wl::MultiTenantSpec& spec,
        const std::vector<TenantRunConfig>& tenant_configs)
      : machine(config.machine),
        partition(config.partition),
        trace(config.trace),
        simcheck(config.simcheck),
        faults(config.faults) {
    const auto num_tenants = static_cast<Asid>(spec.num_tenants());
    CMCP_CHECK(num_tenants > 0);
    CMCP_CHECK_MSG(tenant_configs.size() == num_tenants,
                   "one TenantRunConfig per tenant, in asid order");
    for (Asid t = 0; t < num_tenants; ++t) {
      const TenantRunConfig& tc = tenant_configs[t];
      MemoryManagerConfig mmc;
      mmc.pt_kind = tc.pt_kind;
      mmc.policy = tc.policy;
      mmc.custom_policy = tc.custom_policy;
      add_tenant(spec.tenant(t), spec.placement(t), mmc);
    }
    capacity_units = shared_capacity(config.memory_fraction);
  }

  /// The configured machine; add_tenant grows it by one core block per
  /// tenant (the Machine adds one scanner pseudo-core per tenant).
  sim::MachineConfig machine;
  std::vector<Tenant> tenants;
  std::vector<AddressSpaceSpec> specs;  ///< parallel to `tenants`
  std::uint64_t capacity_units = 0;     ///< shared device capacity
  mm::PartitionKind partition = mm::PartitionKind::kNone;
  sim::trace::EventSink* trace = nullptr;
  bool simcheck = true;
  sim::FaultPlanConfig faults;

 private:
  /// Tenants arrive in asid order with contiguous core blocks.
  void add_tenant(const wl::Workload& workload,
                  const wl::TenantPlacement& placement,
                  const MemoryManagerConfig& config) {
    tenants.push_back({&workload, placement});
    specs.push_back({mm::ComputationArea(placement.area_base_vpn,
                                         placement.footprint_base_pages,
                                         machine.page_size),
                     config, placement.first_core, placement.num_cores});
    machine.num_cores = placement.first_core + placement.num_cores;
  }

  /// `fraction` of the combined footprint (at least one unit).
  std::uint64_t shared_capacity(double fraction) const {
    std::uint64_t total_units = 0;
    for (const AddressSpaceSpec& s : specs) total_units += s.area.num_units();
    const auto cap = static_cast<std::uint64_t>(
        std::ceil(std::max(fraction, 0.0) * static_cast<double>(total_units)));
    return std::max<std::uint64_t>(cap, 1);
  }
};

Simulation::Simulation(const SimulationConfig& config,
                       const wl::Workload& workload)
    : Simulation(Setup(config, workload)) {}

Simulation::Simulation(const MultiTenantConfig& config,
                       const wl::MultiTenantSpec& spec,
                       const std::vector<TenantRunConfig>& tenant_configs)
    : Simulation(Setup(config, spec, tenant_configs)) {}

Simulation::Simulation(Setup setup)
    : tenants_(std::move(setup.tenants)),
      machine_(setup.machine, static_cast<unsigned>(tenants_.size())),
      mm_(machine_, setup.specs, setup.capacity_units, setup.partition) {
  if (setup.trace != nullptr) {
    setup.trace->set_num_app_cores(machine_.num_cores());
    setup.trace->set_num_spaces(mm_.num_spaces());
    machine_.set_trace(setup.trace);
  }
  const sim::FaultPlanConfig fc = effective_faults(setup.faults);
  if (fc.enabled()) {
    faults_ = std::make_unique<sim::FaultPlan>(fc);
    faults_->select_poison(mm_.capacity_units(),
                           mm_.allocator().frames_per_unit());
    machine_.set_fault_plan(faults_.get());
  }
#if CMCP_SIMCHECK_ENABLED
  if (setup.simcheck) {
    checks_ = std::make_unique<sim::CheckRegistry>();
    check::register_default_checkers(*checks_, mm_, machine_);
    checks_->set_event_source(setup.trace);
    mm_.set_check_registry(checks_.get());
  }
#endif
}

void Simulation::execute() {
  CMCP_CHECK_MSG(!ran_, "Simulation::run is single-use");
  ran_ = true;

  // One barrier group per tenant: barriers synchronize only within a
  // tenant's core block, and each tenant finishes independently.
  std::vector<EngineCoreInit> cores(machine_.num_cores());
  std::vector<EngineGroup> groups(tenants_.size());
  for (Asid t = 0; t < tenants_.size(); ++t) {
    const wl::TenantPlacement& p = tenants_[t].placement;
    groups[t] = {p.first_core, p.num_cores};
    for (CoreId c = 0; c < p.num_cores; ++c) {
      EngineCoreInit& init = cores[p.first_core + c];
      init.stream = tenants_[t].workload->make_stream(c);
      init.tenant = t;
      init.area_base = p.area_base_vpn;
    }
  }
  run_engine(machine_, mm_, cores, groups);
  if (checks_ != nullptr) checks_->run_now(sim::CheckPoint::kEndOfRun);
}

TenantResult Simulation::collect_tenant(Asid asid) const {
  const wl::TenantPlacement& p = tenants_[asid].placement;
  const AddressSpace& space = mm_.space(asid);
  TenantResult tr;
  tr.workload_name = std::string(tenants_[asid].workload->name());
  tr.policy_name = std::string(space.policy().name());
  tr.first_core = p.first_core;
  tr.num_cores = p.num_cores;
  for (CoreId c = p.first_core; c < p.first_core + p.num_cores; ++c) {
    tr.makespan = std::max(tr.makespan, machine_.clock(c));
    tr.total += machine_.counters(c);
  }
  tr.scanner = machine_.counters(machine_.scanner_core(asid));
  space.policy().stats([&](std::string_view name, std::uint64_t value) {
    tr.policy_stats.emplace_back(std::string(name), value);
  });
  tr.footprint_units = space.area().num_units();
  tr.capacity_target_units = mm_.partition().target_of(asid);
  tr.resident_units_end = mm_.allocator().in_use_by(asid);
  tr.scans = space.scans_completed();
  return tr;
}

SimulationResult Simulation::run() {
  CMCP_CHECK_MSG(tenants_.size() == 1,
                 "Simulation::run reports one tenant; use run_tenants()");
  execute();

  TenantResult tr = collect_tenant(0);
  SimulationResult result;
  result.makespan = tr.makespan;
  result.per_core.reserve(tr.num_cores);
  for (CoreId c = 0; c < tr.num_cores; ++c)
    result.per_core.push_back(machine_.counters(c));
  result.app_total = tr.total;
  result.scanner = tr.scanner;
  result.policy_name = std::move(tr.policy_name);
  result.policy_stats = std::move(tr.policy_stats);
  result.footprint_units = tr.footprint_units;
  result.capacity_units = mm_.capacity_units();
  result.scans = tr.scans;
  result.sharing_histogram = mm_.space(0).sharing_histogram();
  collect_faults(faults_.get(), result);
  return result;
}

MultiTenantResult Simulation::run_tenants() {
  execute();

  MultiTenantResult result;
  result.shared_capacity_units = mm_.capacity_units();
  result.partition_kind = std::string(mm::to_string(mm_.partition().kind()));
  result.interference = mm_.interference();
  result.tenants.reserve(tenants_.size());
  for (Asid t = 0; t < tenants_.size(); ++t) {
    result.tenants.push_back(collect_tenant(t));
    result.makespan = std::max(result.makespan, result.tenants[t].makespan);
  }
  collect_faults(faults_.get(), result);
  return result;
}

SimulationResult run_simulation(const SimulationConfig& config,
                                const wl::Workload& workload) {
  Simulation sim(config, workload);
  return sim.run();
}

}  // namespace cmcp::core
