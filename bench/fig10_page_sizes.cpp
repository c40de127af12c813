// Fig. 10: relative performance of 4 kB / 64 kB / 2 MB pages as the memory
// constraint tightens (FIFO, 56 cores, class C / big footprints).
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  const CoreId cores = metrics::fast_mode() ? 24 : 56;
  std::printf(
      "Fig. 10 — Impact of page size on relative performance vs memory "
      "constraint\n(PSPT + FIFO, %u cores, class C / big footprints)\n\n",
      cores);

  const PageSizeClass sizes[] = {PageSizeClass::k4K, PageSizeClass::k64K,
                                 PageSizeClass::k2M};
  const double fractions[] = {1.0, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4};

  for (const auto which : wl::kAllPaperWorkloads) {
    wl::WorkloadParams params;
    params.cores = cores;
    const auto workload =
        wl::make_paper_workload(which, params, wl::WorkloadSize::kBig);

    std::vector<std::string> headers = {"memory provided"};
    for (const PageSizeClass size : sizes) headers.emplace_back(to_string(size));
    metrics::Table table(headers);

    // ONE baseline per benchmark — the system-default (4 kB) no-data-movement
    // run — so the TLB-reach advantage of the larger formats is visible as
    // ratios above the 4 kB curve, as in the paper's plots.
    Cycles baseline = 0;
    {
      core::SimulationConfig config;
      config.machine.num_cores = cores;
      config.machine.page_size = PageSizeClass::k4K;
      config.preload = true;
      baseline = core::run_simulation(config, *workload).makespan;
    }

    for (const double fraction : fractions) {
      std::vector<std::string> row = {metrics::fmt_percent(fraction, 0)};
      for (const PageSizeClass size : sizes) {
        core::SimulationConfig config;
        config.machine.num_cores = cores;
        config.machine.page_size = size;
        config.memory_fraction = fraction;
        config.policy.kind = PolicyKind::kFifo;
        const auto result = core::run_simulation(config, *workload);
        row.push_back(metrics::fmt_percent(
            static_cast<double>(baseline) / result.makespan, 0));
      }
      table.add_row(std::move(row));
    }

    std::printf("--- %s.C ---\n%s\n", std::string(to_string(which)).c_str(),
                table.markdown().c_str());
    table.save_csv("results/fig10_" + std::string(to_string(which)) + ".csv");
  }
  std::printf(
      "Expected shape (paper): 2MB wins under mild constraint; as memory "
      "shrinks the\nfiner granularities win — first 64kB, then 4kB for BT/LU; "
      "CG and SCALE keep\nfavouring 64kB over 4kB.\n");
  return 0;
}
