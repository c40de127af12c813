#include "metrics/experiment.h"

#include <sstream>

#include "policy/dynamic_p.h"
#include "policy/random_policy.h"

namespace cmcp::metrics {

core::SimulationConfig RunSpec::to_config() const {
  core::SimulationConfig config;
  config.machine.num_cores = cores;
  config.machine.page_size = page_size;
  config.pt_kind = pt_kind;
  config.policy = policy;
  config.preload = preload;
  config.memory_fraction = memory_fraction > 0.0
                               ? memory_fraction
                               : wl::paper_memory_fraction(workload);
  config.faults = faults;
  config.simcheck = simcheck;
  return config;
}

namespace {

std::string fmt_double_meta(double v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

}  // namespace

sim::trace::Metadata RunSpec::describe() const {
  sim::trace::Metadata meta;
  meta.emplace_back("workload", std::string(to_string(workload)));
  meta.emplace_back("size", std::string(size_suffix(size)));
  meta.emplace_back("cores", std::to_string(cores));
  meta.emplace_back("pt_kind", std::string(to_string(pt_kind)));
  meta.emplace_back("policy", std::string(to_string(policy.kind)));
  meta.emplace_back("memory_fraction",
                    fmt_double_meta(memory_fraction > 0.0
                                        ? memory_fraction
                                        : wl::paper_memory_fraction(workload)));
  meta.emplace_back("preload", preload ? "true" : "false");
  meta.emplace_back("page_size", std::string(to_string(page_size)));
  meta.emplace_back("seed", std::to_string(seed));
  meta.emplace_back("scale", fmt_double_meta(scale));
  switch (policy.kind) {
    case PolicyKind::kCmcp:
      meta.emplace_back("cmcp_p", fmt_double_meta(policy.cmcp.p));
      meta.emplace_back("cmcp_age_limit_ticks",
                        std::to_string(policy.cmcp.age_limit_ticks));
      meta.emplace_back("cmcp_aging",
                        policy.cmcp.aging_enabled ? "true" : "false");
      break;
    case PolicyKind::kCmcpDynamicP:
      meta.emplace_back("cmcp_p", fmt_double_meta(policy.dynamic_p_start));
      meta.emplace_back(
          "dyn_step", fmt_double_meta(policy::DynamicPCmcpPolicy::kStep));
      meta.emplace_back(
          "dyn_window_ticks",
          std::to_string(policy::DynamicPCmcpPolicy::kWindowTicks));
      break;
    case PolicyKind::kRandom:
      meta.emplace_back("random_seed",
                        std::to_string(policy::RandomPolicy::kSeed));
      break;
    default:
      break;
  }
  if (faults.enabled()) {
    // Only when enabled: legacy headers must stay byte-identical. The spec
    // string alone reproduces the schedule; seed and retry budget are also
    // broken out for trace_lint's give-up rule.
    meta.emplace_back("faults", faults.to_spec());
    meta.emplace_back("fault_seed", std::to_string(faults.seed));
    meta.emplace_back("fault_max_retries",
                      std::to_string(sim::FaultPlanConfig::kMaxRetries));
  }
  return meta;
}

core::SimulationResult run_spec(const RunSpec& spec) {
  wl::WorkloadParams base;
  base.cores = spec.cores;
  base.seed = spec.seed;
  if (spec.scale > 0.0) base.scale = spec.scale;
  const auto workload = wl::make_paper_workload(spec.workload, base, spec.size);
  return core::run_simulation(spec.to_config(), *workload);
}

sim::trace::Summary result_summary(const core::SimulationResult& result) {
  sim::trace::Summary s;
  s.emplace_back("makespan", result.makespan);
  s.emplace_back("accesses", result.app_total.accesses);
  s.emplace_back("dtlb_misses", result.app_total.dtlb_misses);
  s.emplace_back("major_faults", result.app_total.major_faults);
  s.emplace_back("minor_faults", result.app_total.minor_faults);
  s.emplace_back("remote_invals",
                 result.app_total.remote_invalidations_received);
  s.emplace_back("evictions", result.app_total.evictions);
  s.emplace_back("writebacks", result.app_total.writebacks);
  s.emplace_back("pcie_bytes_in", result.app_total.pcie_bytes_in);
  s.emplace_back("pcie_bytes_out", result.app_total.pcie_bytes_out);
  s.emplace_back("scans", result.scans);
  s.emplace_back("footprint_units", result.footprint_units);
  s.emplace_back("capacity_units", result.capacity_units);
  if (result.faults_enabled) {
    // Gated so fault-free summaries stay byte-identical to pre-fault runs.
    const sim::FaultStats& fs = result.fault_stats;
    s.emplace_back("faults_injected", fs.total_injected());
    s.emplace_back("fault_retries", fs.retries);
    s.emplace_back("fault_give_ups", fs.give_ups);
    s.emplace_back("frames_quarantined", fs.frames_quarantined);
    s.emplace_back("recovery_cycles", fs.recovery_cycles);
    s.emplace_back("straggler_cycles", fs.straggler_cycles);
  }
  for (const auto& [name, value] : result.policy_stats)
    s.emplace_back("policy." + name, value);
  return s;
}

double relative_performance(const core::SimulationResult& baseline,
                            const core::SimulationResult& run) {
  if (run.makespan == 0) return 0.0;
  return static_cast<double>(baseline.makespan) /
         static_cast<double>(run.makespan);
}

}  // namespace cmcp::metrics
