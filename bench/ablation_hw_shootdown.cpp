// Ablation A7 (extension): what if the hardware did TLB coherence?
//
// Section 2.3 notes that "an alternative solution to the careful software
// approach could be if the hardware provided the right capability to
// invalidate TLBs on multiple CPU cores," and the related work discusses
// DiDi's shared TLB directory (Villavieja et al., PACT'11). This bench
// re-runs the Fig. 7 comparison with such hardware: directed invalidations
// at bus cost, no IPIs, no serialized slot — showing how much of PSPT's
// (and CMCP's) advantage is really a software workaround for missing
// hardware.
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  const auto which = wl::PaperWorkload::kBt;
  std::printf(
      "Ablation A7 — software IPI shootdowns vs hypothetical TLB directory "
      "hardware (%s)\n(runtime in Mcycles)\n\n",
      std::string(to_string(which)).c_str());

  metrics::Table table({"cores", "regPT+FIFO (IPI)", "regPT+FIFO (HW)",
                        "PSPT+FIFO (IPI)", "PSPT+FIFO (HW)", "PSPT+LRU (HW)",
                        "PSPT+CMCP (IPI)"});

  for (const CoreId cores : metrics::paper_core_counts()) {
    wl::WorkloadParams params;
    params.cores = cores;
    const auto workload = wl::make_paper_workload(which, params);

    const auto run = [&](PageTableKind pt, PolicyKind policy,
                         sim::TlbCoherence coherence) {
      core::SimulationConfig config;
      config.machine.num_cores = cores;
      config.machine.tlb_coherence = coherence;
      config.pt_kind = pt;
      config.policy.kind = policy;
      config.policy.cmcp.p = wl::paper_best_p(which);
      config.memory_fraction = wl::paper_memory_fraction(which);
      return core::run_simulation(config, *workload).makespan / 1e6;
    };

    using enum PolicyKind;
    using enum PageTableKind;
    using enum sim::TlbCoherence;
    table.add_row({std::to_string(cores),
                   metrics::fmt_double(run(kRegular, kFifo, kIpiShootdown), 1),
                   metrics::fmt_double(run(kRegular, kFifo, kHardwareDirectory), 1),
                   metrics::fmt_double(run(kPspt, kFifo, kIpiShootdown), 1),
                   metrics::fmt_double(run(kPspt, kFifo, kHardwareDirectory), 1),
                   metrics::fmt_double(run(kPspt, kLru, kHardwareDirectory), 1),
                   metrics::fmt_double(run(kPspt, kCmcp, kIpiShootdown), 1)});
  }

  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "Expected: with directory hardware, regular tables stop collapsing and "
      "LRU's\nscanning becomes nearly free — the paper's software results are "
      "contingent on\nx86's IPI-based TLB coherence, exactly as section 2.3 "
      "suggests.\n");
  table.save_csv("results/ablation_hw_shootdown.csv");
  return 0;
}
