// Fig. 8: relative performance as a function of the memory provided
// (PSPT + FIFO, 4 kB pages, 56 cores), sweeping the fraction from 100% down
// to 30% — the turning-point analysis of section 5.3.
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  const CoreId cores = metrics::fast_mode() ? 24 : 56;
  std::printf(
      "Fig. 8 — Relative performance vs physical memory provided\n"
      "(PSPT + FIFO, 4kB pages, %u cores; 100%% = no data movement)\n\n",
      cores);

  const double fractions[] = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.35, 0.3};

  std::vector<std::string> headers = {"memory provided"};
  for (const auto which : wl::kAllPaperWorkloads)
    headers.emplace_back(to_string(which));
  metrics::Table table(headers);

  // Baselines per workload.
  std::vector<Cycles> baselines;
  std::vector<std::unique_ptr<wl::Workload>> workloads;
  for (const auto which : wl::kAllPaperWorkloads) {
    wl::WorkloadParams params;
    params.cores = cores;
    workloads.push_back(wl::make_paper_workload(which, params));
    core::SimulationConfig config;
    config.machine.num_cores = cores;
    config.preload = true;
    baselines.push_back(core::run_simulation(config, *workloads.back()).makespan);
  }

  for (const double fraction : fractions) {
    std::vector<std::string> row = {metrics::fmt_percent(fraction, 0)};
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      core::SimulationConfig config;
      config.machine.num_cores = cores;
      config.memory_fraction = fraction;
      config.policy.kind = PolicyKind::kFifo;
      const auto result = core::run_simulation(config, *workloads[i]);
      row.push_back(metrics::fmt_percent(
          static_cast<double>(baselines[i]) / result.makespan, 0));
    }
    table.add_row(std::move(row));
  }

  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "Expected shape (paper): BT/LU degrade gradually below 100%%; CG and "
      "SCALE hold\nuntil their touched working set no longer fits (paper: "
      "~35%% and ~55%%), then drop.\n");
  table.save_csv("results/fig8_memory_constraint.csv");
  return 0;
}
