// Ablation A3: sensitivity to the IPI cost. The paper's conclusion — LRU
// loses because of shootdown overhead — should invert on a hypothetical
// machine with near-free remote TLB invalidation (the hardware support the
// paper asks vendors for in section 2.3).
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  const CoreId cores = metrics::fast_mode() ? 16 : 32;
  const auto which = wl::PaperWorkload::kCg;
  std::printf(
      "Ablation A3 — IPI/shootdown cost sensitivity (%s, %u cores)\n"
      "scaling all shootdown costs by a factor; 1.0 = modelled KNC\n\n",
      std::string(to_string(which)).c_str(), cores);

  wl::WorkloadParams params;
  params.cores = cores;
  const auto workload = wl::make_paper_workload(which, params);

  metrics::Table table({"cost factor", "FIFO (Mcyc)", "LRU (Mcyc)",
                        "CMCP (Mcyc)", "LRU vs FIFO", "CMCP vs FIFO"});

  for (const double factor : {0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    Cycles runtimes[3] = {};
    const PolicyKind policies[] = {PolicyKind::kFifo, PolicyKind::kLru,
                                   PolicyKind::kCmcp};
    for (int pi = 0; pi < 3; ++pi) {
      core::SimulationConfig config;
      config.machine.num_cores = cores;
      config.policy.kind = policies[pi];
      config.policy.cmcp.p = wl::paper_best_p(which);
      config.memory_fraction = wl::paper_memory_fraction(which);
      auto& cost = config.machine.cost;
      cost.ipi_initiate = static_cast<Cycles>(cost.ipi_initiate * factor);
      cost.ipi_per_target = static_cast<Cycles>(cost.ipi_per_target * factor);
      cost.ipi_receive = static_cast<Cycles>(cost.ipi_receive * factor);
      cost.inval_slot_hold = static_cast<Cycles>(cost.inval_slot_hold * factor);
      cost.invlpg = static_cast<Cycles>(cost.invlpg * factor);
      runtimes[pi] = core::run_simulation(config, *workload).makespan;
    }
    table.add_row(
        {metrics::fmt_double(factor, 2), metrics::fmt_double(runtimes[0] / 1e6, 1),
         metrics::fmt_double(runtimes[1] / 1e6, 1),
         metrics::fmt_double(runtimes[2] / 1e6, 1),
         metrics::fmt_percent(static_cast<double>(runtimes[0]) / runtimes[1]),
         metrics::fmt_percent(static_cast<double>(runtimes[0]) / runtimes[2])});
  }

  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "Expected: with free shootdowns (factor 0) LRU's fault savings win; at "
      "real KNC\ncosts the overhead dominates and the paper's ordering (CMCP > "
      "FIFO > LRU) holds.\n");
  table.save_csv("results/ablation_shootdown_cost.csv");
  return 0;
}
