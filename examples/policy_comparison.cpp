// Example: compare ALL seven replacement policies (the paper's three plus
// the library's extension baselines) on one workload, reporting the full
// observable breakdown — a template for evaluating your own policy.
//
//   $ ./policy_comparison [cg|lu|bt|scale]
#include <cstdio>
#include <cstring>

#include "cmcp.h"

int main(int argc, char** argv) {
  using namespace cmcp;

  wl::PaperWorkload which = wl::PaperWorkload::kLu;
  if (argc > 1) {
    for (const auto candidate : wl::kAllPaperWorkloads)
      if (to_string(candidate) == argv[1]) which = candidate;
  }

  const CoreId cores = 24;
  wl::WorkloadParams params;
  params.cores = cores;
  const auto workload = wl::make_paper_workload(which, params);

  core::SimulationConfig config;
  config.machine.num_cores = cores;
  config.preload = true;
  const auto baseline = core::run_simulation(config, *workload);

  std::printf("workload %s, %u cores, %s of footprint in device memory\n\n",
              std::string(to_string(which)).c_str(), cores,
              metrics::fmt_percent(wl::paper_memory_fraction(which), 0).c_str());

  metrics::Table table({"policy", "relative perf", "major faults",
                        "minor faults", "remote invals", "lock-wait Mcyc",
                        "interrupt Mcyc"});

  config.preload = false;
  config.memory_fraction = wl::paper_memory_fraction(which);
  for (const PolicyKind kind :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kCmcp,
        PolicyKind::kClock, PolicyKind::kLfu, PolicyKind::kRandom, PolicyKind::kArc,
        PolicyKind::kCmcpDynamicP}) {
    config.policy.kind = kind;
    config.policy.cmcp.p = wl::paper_best_p(which);
    config.policy.dynamic_p_start = 0.5;
    const auto r = core::run_simulation(config, *workload);
    table.add_row(
        {std::string(to_string(kind)),
         metrics::fmt_percent(metrics::relative_performance(baseline, r)),
         metrics::fmt_u64(r.app_total.major_faults),
         metrics::fmt_u64(r.app_total.minor_faults),
         metrics::fmt_u64(r.app_total.remote_invalidations_received),
         metrics::fmt_double(r.app_total.cycles_lock_wait / 1e6, 1),
         metrics::fmt_double(r.app_total.cycles_interrupt / 1e6, 1)});
  }

  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "Access-bit based policies (LRU/LFU/CLOCK) pay for usage sampling in "
      "remote\ninvalidations and lock waits; CMCP gets its signal from PSPT "
      "for free.\n");
  return 0;
}
