// Fig. 6: distribution of computation-area pages by the number of CPU cores
// mapping them, for each workload and core count. Obtained — as in the
// paper — from PSPT's per-core page tables after an unconstrained run.
//
// Output: one table per workload; rows = core counts, columns = share of
// pages mapped by exactly 1, 2, ... cores. CSVs land in results/.
#include <cstdio>
#include <numeric>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  std::printf(
      "Fig. 6 — Distribution of pages according to the number of CPU cores "
      "mapping them\n(unconstrained PSPT runs; paper: Gerofi et al., HPDC'14)\n\n");

  for (const auto which : wl::kAllPaperWorkloads) {
    std::vector<std::string> headers = {"cores"};
    for (int c = 1; c <= 8; ++c)
      headers.push_back(std::to_string(c) + (c == 1 ? " core" : " cores"));
    headers.push_back("9+ cores");
    metrics::Table table(headers);

    for (const CoreId cores : metrics::paper_core_counts()) {
      wl::WorkloadParams params;
      params.cores = cores;
      const auto workload = wl::make_paper_workload(which, params);

      core::SimulationConfig config;
      config.machine.num_cores = cores;
      config.preload = true;  // no data movement: sharing reflects the app
      const auto result = core::run_simulation(config, *workload);

      const double total =
          std::accumulate(result.sharing_histogram.begin(),
                          result.sharing_histogram.end(), 0.0);
      std::vector<std::string> row = {std::to_string(cores)};
      double tail = 0.0;
      for (std::size_t c = 1; c < result.sharing_histogram.size(); ++c) {
        const double frac = static_cast<double>(result.sharing_histogram[c]) / total;
        if (c <= 8)
          row.push_back(metrics::fmt_percent(frac));
        else
          tail += frac;
      }
      for (std::size_t c = result.sharing_histogram.size(); c <= 8; ++c)
        row.push_back(metrics::fmt_percent(0.0));
      row.push_back(metrics::fmt_percent(tail));
      table.add_row(std::move(row));
    }

    std::printf("--- %s.B ---\n%s\n", std::string(to_string(which)).c_str(),
                table.markdown().c_str());
    table.save_csv("results/fig6_" + std::string(to_string(which)) + ".csv");
  }
  std::printf("CSV written to results/fig6_<app>.csv\n");
  return 0;
}
