// Ablation A6 (extension): sequential readahead on major faults. The
// paper's kernel fetches exactly the faulting page; readahead trades link
// bandwidth for fault latency. On the streaming-heavy workloads it should
// convert most majors into minor faults without moving extra data.
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  const CoreId cores = metrics::fast_mode() ? 16 : 32;
  std::printf("Ablation A6 — sequential prefetch degree (PSPT + CMCP, %u cores)\n\n",
              cores);

  for (const auto which : {wl::PaperWorkload::kBt, wl::PaperWorkload::kCg}) {
    wl::WorkloadParams params;
    params.cores = cores;
    const auto workload = wl::make_paper_workload(which, params);

    metrics::Table table({"degree", "runtime (Mcyc)", "major faults",
                          "prefetch hits", "wasted prefetches", "PCIe GB"});
    Cycles base_runtime = 0;
    for (const unsigned degree : {0u, 1u, 2u, 4u, 8u, 16u}) {
      core::SimulationConfig config;
      config.machine.num_cores = cores;
      config.policy.kind = PolicyKind::kCmcp;
      config.policy.cmcp.p = wl::paper_best_p(which);
      config.memory_fraction = wl::paper_memory_fraction(which);
      config.prefetch_degree = degree;
      const auto r = core::run_simulation(config, *workload);
      if (degree == 0) base_runtime = r.makespan;
      table.add_row(
          {metrics::fmt_u64(degree), metrics::fmt_double(r.makespan / 1e6, 1),
           metrics::fmt_u64(r.app_total.major_faults),
           metrics::fmt_u64(r.app_total.prefetch_hits),
           metrics::fmt_u64(r.app_total.prefetches - r.app_total.prefetch_hits),
           metrics::fmt_double((r.app_total.pcie_bytes_in +
                                r.app_total.pcie_bytes_out) /
                                   1e9,
                               2)});
      (void)base_runtime;
    }
    std::printf("--- %s ---\n%s\n", std::string(to_string(which)).c_str(),
                table.markdown().c_str());
    table.save_csv("results/ablation_prefetch_" +
                   std::string(to_string(which)) + ".csv");
  }
  std::printf(
      "Wasted prefetches (issued, evicted untouched) are the cost of "
      "guessing; the\nstreaming sweeps make sequential guesses mostly "
      "right.\n");
  return 0;
}
