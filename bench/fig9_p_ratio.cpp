// Fig. 9: the impact of CMCP's prioritized-page ratio p on performance
// improvement over FIFO (56 cores, paper constraints). The paper observes
// the optimum is workload specific: CG low, LU/SCALE high.
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  const CoreId cores = metrics::fast_mode() ? 24 : 56;
  std::printf(
      "Fig. 9 — Impact of the ratio of prioritized pages (p) in CMCP\n"
      "(improvement over PSPT+FIFO, %u cores)\n\n",
      cores);

  const double ps[] = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

  std::vector<std::string> headers = {"p"};
  for (const auto which : wl::kAllPaperWorkloads)
    headers.emplace_back(to_string(which));
  metrics::Table table(headers);

  std::vector<std::unique_ptr<wl::Workload>> workloads;
  std::vector<Cycles> fifo_runtime;
  for (const auto which : wl::kAllPaperWorkloads) {
    wl::WorkloadParams params;
    params.cores = cores;
    workloads.push_back(wl::make_paper_workload(which, params));
    core::SimulationConfig config;
    config.machine.num_cores = cores;
    config.policy.kind = PolicyKind::kFifo;
    config.memory_fraction = wl::paper_memory_fraction(which);
    fifo_runtime.push_back(core::run_simulation(config, *workloads.back()).makespan);
  }

  std::vector<double> best_gain(workloads.size(), -1.0);
  std::vector<double> best_p(workloads.size(), 0.0);
  for (const double p : ps) {
    std::vector<std::string> row = {metrics::fmt_double(p, 2)};
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      core::SimulationConfig config;
      config.machine.num_cores = cores;
      config.policy.kind = PolicyKind::kCmcp;
      config.policy.cmcp.p = p;
      config.memory_fraction =
          wl::paper_memory_fraction(wl::kAllPaperWorkloads[i]);
      const auto result = core::run_simulation(config, *workloads[i]);
      const double gain =
          static_cast<double>(fifo_runtime[i]) / result.makespan - 1.0;
      if (gain > best_gain[i]) {
        best_gain[i] = gain;
        best_p[i] = p;
      }
      row.push_back(metrics::fmt_percent(gain, 1));
    }
    table.add_row(std::move(row));
  }

  std::printf("%s\n", table.markdown().c_str());
  for (std::size_t i = 0; i < workloads.size(); ++i)
    std::printf("%s: best p = %.2f (gain %s)\n",
                std::string(to_string(wl::kAllPaperWorkloads[i])).c_str(),
                best_p[i], metrics::fmt_percent(best_gain[i], 1).c_str());
  std::printf(
      "\nPaper section 5.6: \"CG benefits the most from a low ratio, while "
      "in case of LU or\nSCALE high ratio appears to work better.\"\n");
  table.save_csv("results/fig9_p_ratio.csv");
  return 0;
}
