// Ablation A2: the LRU scan-period tradeoff of section 5.5 — "the lower the
// frequency is, the less the TLB invalidation overhead becomes. However,
// doing so defeats the very purpose of LRU... Eventually, with very low
// page scanning frequency LRU simply fell back to the behavior of FIFO."
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  const CoreId cores = metrics::fast_mode() ? 16 : 32;
  const auto which = wl::PaperWorkload::kScale;
  std::printf(
      "Ablation A2 — LRU access-bit scan period sweep (%s, %u cores)\n\n",
      std::string(to_string(which)).c_str(), cores);

  wl::WorkloadParams params;
  params.cores = cores;
  const auto workload = wl::make_paper_workload(which, params);

  // FIFO reference.
  core::SimulationConfig fifo_config;
  fifo_config.machine.num_cores = cores;
  fifo_config.policy.kind = PolicyKind::kFifo;
  fifo_config.memory_fraction = wl::paper_memory_fraction(which);
  const auto fifo = core::run_simulation(fifo_config, *workload);

  metrics::Table table({"scan period (ms)", "runtime (Mcyc)", "vs FIFO",
                        "faults", "remote invals", "scans"});
  table.add_row({"FIFO (no scanning)", metrics::fmt_double(fifo.makespan / 1e6, 1),
                 "100%", metrics::fmt_u64(fifo.app_total.major_faults),
                 metrics::fmt_u64(fifo.app_total.remote_invalidations_received),
                 "0"});

  for (const double period_ms : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 200.0}) {
    core::SimulationConfig config = fifo_config;
    config.policy.kind = PolicyKind::kLru;
    config.machine.cost.scan_period =
        static_cast<Cycles>(period_ms * 1e6 * sim::CostModel::clock_ghz);
    const auto result = core::run_simulation(config, *workload);
    table.add_row(
        {metrics::fmt_double(period_ms, 0),
         metrics::fmt_double(result.makespan / 1e6, 1),
         metrics::fmt_percent(static_cast<double>(fifo.makespan) /
                              result.makespan),
         metrics::fmt_u64(result.app_total.major_faults),
         metrics::fmt_u64(result.app_total.remote_invalidations_received),
         metrics::fmt_u64(result.scans)});
  }

  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "Expected: frequent scans -> fewer faults but crushing invalidation "
      "overhead;\nrare scans -> behaviour (and runtime) converges to FIFO.\n");
  table.save_csv("results/ablation_lru_scan_period.csv");
  return 0;
}
