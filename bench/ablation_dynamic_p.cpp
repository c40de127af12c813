// Ablation A5: the paper's future work (section 5.6) — adjusting p at
// runtime from fault-frequency feedback. We compare the hill-climbing
// controller against the best and worst static p per workload.
#include <cstdint>
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  const CoreId cores = metrics::fast_mode() ? 16 : 32;
  std::printf(
      "Ablation A5 — dynamic-p controller vs static p (%u cores)\n\n", cores);

  metrics::Table table({"workload", "best static p", "best static (Mcyc)",
                        "worst static (Mcyc)", "dynamic (Mcyc)",
                        "dynamic vs best", "final p"});

  for (const auto which : wl::kAllPaperWorkloads) {
    wl::WorkloadParams params;
    params.cores = cores;
    const auto workload = wl::make_paper_workload(which, params);
    const double fraction = wl::paper_memory_fraction(which);

    Cycles best = ~Cycles{0}, worst = 0;
    double best_p = 0;
    for (const double p : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9}) {
      core::SimulationConfig config;
      config.machine.num_cores = cores;
      config.policy.kind = PolicyKind::kCmcp;
      config.policy.cmcp.p = p;
      config.memory_fraction = fraction;
      const Cycles t = core::run_simulation(config, *workload).makespan;
      if (t < best) {
        best = t;
        best_p = p;
      }
      worst = std::max(worst, t);
    }

    core::SimulationConfig config;
    config.machine.num_cores = cores;
    config.policy.kind = PolicyKind::kCmcpDynamicP;
    config.policy.dynamic_p_start = 0.5;  // neutral start
    config.memory_fraction = fraction;
    wl::WorkloadParams wp;
    wp.cores = cores;
    const auto w2 = wl::make_paper_workload(which, wp);
    const auto result = core::run_simulation(config, *w2);
    std::uint64_t p_permille = 0;
    for (const auto& [name, value] : result.policy_stats)
      if (name == "p_permille") p_permille = value;
    const auto final_p = p_permille / 1000.0;

    table.add_row({std::string(to_string(which)), metrics::fmt_double(best_p, 1),
                   metrics::fmt_double(best / 1e6, 1),
                   metrics::fmt_double(worst / 1e6, 1),
                   metrics::fmt_double(result.makespan / 1e6, 1),
                   metrics::fmt_percent(static_cast<double>(best) /
                                        result.makespan),
                   metrics::fmt_double(final_p, 2)});
  }

  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "Expected: the controller lands close to the best static p without "
      "per-workload\ntuning (the paper adjusted p manually).\n");
  table.save_csv("results/ablation_dynamic_p.csv");
  return 0;
}
