// Ablation A1: does CMCP's aging mechanism matter? The paper argues aging
// prevents the priority group from being "monopolized" by dead shared
// pages. We compare aging on/off on the paper workloads and on the
// adversarial pattern where dead shared pages dominate.
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

namespace {

Cycles run(const wl::Workload& workload, bool aging, std::uint32_t age_ticks,
           double fraction, std::uint64_t* faults) {
  core::SimulationConfig config;
  config.machine.num_cores = workload.num_cores();
  config.policy.kind = PolicyKind::kCmcp;
  config.policy.cmcp.p = 0.5;
  config.policy.cmcp.aging_enabled = aging;
  config.policy.cmcp.age_limit_ticks = age_ticks;
  config.memory_fraction = fraction;
  const auto result = core::run_simulation(config, workload);
  if (faults != nullptr) *faults = result.app_total.major_faults;
  return result.makespan;
}

}  // namespace

int main() {
  const CoreId cores = metrics::fast_mode() ? 16 : 32;
  std::printf("Ablation A1 — CMCP aging on/off (p = 0.5, %u cores)\n\n", cores);

  metrics::Table table(
      {"workload", "aging off", "age=8", "age=24", "age=64", "off/age24"});

  for (const auto which : wl::kAllPaperWorkloads) {
    wl::WorkloadParams params;
    params.cores = cores;
    const auto workload = wl::make_paper_workload(which, params);
    const double fraction = wl::paper_memory_fraction(which);
    const Cycles off = run(*workload, false, 0, fraction, nullptr);
    const Cycles a8 = run(*workload, true, 8, fraction, nullptr);
    const Cycles a24 = run(*workload, true, 24, fraction, nullptr);
    const Cycles a64 = run(*workload, true, 64, fraction, nullptr);
    table.add_row({std::string(to_string(which)),
                   metrics::fmt_double(off / 1e6, 1) + " Mcyc",
                   metrics::fmt_double(a8 / 1e6, 1),
                   metrics::fmt_double(a24 / 1e6, 1),
                   metrics::fmt_double(a64 / 1e6, 1),
                   metrics::fmt_double(static_cast<double>(off) / a24, 3)});
  }

  // The adversarial pattern: without aging, dead shared pages monopolize
  // the group and CMCP never recovers the capacity.
  wl::AdversarialParams params;
  params.base.cores = cores;
  wl::AdversarialWorkload adversarial(params);
  std::uint64_t faults_off = 0, faults_on = 0;
  const Cycles off = run(adversarial, false, 0, 0.5, &faults_off);
  const Cycles a8 = run(adversarial, true, 8, 0.5, &faults_on);
  const Cycles a24 = run(adversarial, true, 24, 0.5, nullptr);
  const Cycles a64 = run(adversarial, true, 64, 0.5, nullptr);
  table.add_row({"adversarial", metrics::fmt_double(off / 1e6, 1) + " Mcyc",
                 metrics::fmt_double(a8 / 1e6, 1),
                 metrics::fmt_double(a24 / 1e6, 1),
                 metrics::fmt_double(a64 / 1e6, 1),
                 metrics::fmt_double(static_cast<double>(off) / a24, 3)});

  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "adversarial faults: aging off = %llu, aging(8) = %llu — aging lets the "
      "dead\nshared region drain back to FIFO (paper section 3).\n",
      static_cast<unsigned long long>(faults_off),
      static_cast<unsigned long long>(faults_on));
  table.save_csv("results/ablation_cmcp_aging.csv");
  return 0;
}
