#include "core/simulation.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>

#include "check/invariant_checkers.h"
#include "common/assert.h"
#include "core/engine.h"

namespace cmcp::core {

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

sim::MachineConfig Simulation::machine_config_for(const SimulationConfig& config,
                                                  const wl::Workload& workload) {
  sim::MachineConfig mc = config.machine;
  mc.num_cores = workload.num_cores();
  return mc;
}

mm::ComputationArea Simulation::area_for(const SimulationConfig& config,
                                         const wl::Workload& workload) {
  // Align the base to the largest unit so any page size is valid.
  const Vpn base = (config.area_base_vpn + 511) & ~Vpn{511};
  return mm::ComputationArea(base, workload.footprint_base_pages(),
                             config.machine.page_size);
}

MemoryManagerConfig Simulation::mm_config_for(const SimulationConfig& config,
                                              const mm::ComputationArea& area) {
  MemoryManagerConfig mmc;
  mmc.pt_kind = config.pt_kind;
  mmc.policy = config.policy;
  mmc.custom_policy = config.custom_policy;
  mmc.preload = config.preload;
  mmc.prefetch_degree = config.prefetch_degree;
  mmc.async_writeback = config.async_writeback;
  if (config.capacity_units_override != 0) {
    mmc.capacity_units = config.capacity_units_override;
  } else {
    const double frac = std::max(config.memory_fraction, 0.0);
    mmc.capacity_units = static_cast<std::uint64_t>(
        std::ceil(frac * static_cast<double>(area.num_units())));
  }
  mmc.capacity_units = std::max<std::uint64_t>(mmc.capacity_units, 1);
  if (config.preload)
    mmc.capacity_units = std::max(mmc.capacity_units, area.num_units());
  return mmc;
}

Simulation::Simulation(const SimulationConfig& config, const wl::Workload& workload)
    : config_(config),
      workload_(workload),
      machine_(machine_config_for(config, workload)),
      area_(area_for(config, workload)),
      mm_(machine_, area_, mm_config_for(config, area_)) {
  if (config_.trace != nullptr) {
    config_.trace->set_num_app_cores(machine_.num_cores());
    machine_.set_trace(config_.trace);
  }
  sim::FaultPlanConfig fc = config_.faults;
  if (!fc.enabled()) {
    // CI chaos hook: an explicitly configured plan always wins, but a run
    // with faults off picks up CMCP_CHAOS_FAULTS so the whole fast suite
    // can be replayed under a fault mix without touching each test.
    if (const char* env = std::getenv("CMCP_CHAOS_FAULTS");
        env != nullptr && *env != '\0') {
      CMCP_CHECK_MSG(sim::FaultPlanConfig::parse(env, &fc),
                     "malformed CMCP_CHAOS_FAULTS spec");
    }
  }
  if (fc.enabled()) {
    faults_ = std::make_unique<sim::FaultPlan>(fc);
    faults_->select_poison(mm_.capacity_units(),
                           mm_.allocator().frames_per_unit());
    machine_.set_fault_plan(faults_.get());
  }
#if CMCP_SIMCHECK_ENABLED
  if (config_.simcheck) {
    checks_ = std::make_unique<sim::CheckRegistry>();
    check::register_default_checkers(*checks_, mm_, machine_);
    checks_->set_event_source(config_.trace);
    mm_.set_check_registry(checks_.get());
  }
#endif
}

SimulationResult Simulation::run() {
  CMCP_CHECK_MSG(!ran_, "Simulation::run is single-use");
  ran_ = true;

  const CoreId n = machine_.num_cores();
  std::vector<EngineCoreInit> cores(n);
  for (CoreId c = 0; c < n; ++c) {
    cores[c].stream = workload_.make_stream(c);
    cores[c].area_base = area_.base_vpn();
  }
  // One barrier group spanning the whole machine: wl::OpKind::kBarrier
  // synchronizes every core.
  const EngineGroup group{0, n};
  run_engine(machine_, mm_, cores, std::span<const EngineGroup>(&group, 1));
  if (checks_ != nullptr) checks_->run_now(sim::CheckPoint::kEndOfRun);

  SimulationResult result;
  for (CoreId c = 0; c < n; ++c)
    result.makespan = std::max(result.makespan, machine_.clock(c));
  result.per_core.reserve(n);
  for (CoreId c = 0; c < n; ++c) result.per_core.push_back(machine_.counters(c));
  result.app_total = machine_.aggregate_app_counters();
  result.scanner = machine_.counters(machine_.scanner_core());
  result.footprint_units = area_.num_units();
  result.capacity_units = mm_.capacity_units();
  result.scans = mm_.scans_completed();
  result.sharing_histogram = mm_.sharing_histogram();
  const policy::ReplacementPolicy& pol = mm_.policy();
  result.policy_name = std::string(pol.name());
  pol.stats([&](std::string_view name, std::uint64_t value) {
    result.policy_stats.emplace_back(std::string(name), value);
  });
  if (faults_ != nullptr) {
    result.faults_enabled = true;
    result.fault_config = faults_->config();
    result.fault_stats = faults_->stats();
  }
  return result;
}

SimulationResult run_simulation(const SimulationConfig& config,
                                const wl::Workload& workload) {
  Simulation sim(config, workload);
  return sim.run();
}

}  // namespace cmcp::core
