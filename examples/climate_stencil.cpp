// Domain example: a SCALE-like climate stencil running out-of-core.
//
// Scenario from the paper's introduction: a weather model whose grids do
// not fit the co-processor's 8 GB. We size the domain at 2x the device
// memory and ask: which policy and page size keep the time step closest to
// the all-resident ideal?
//
//   $ ./climate_stencil
#include <cstdio>

#include "cmcp.h"

int main() {
  using namespace cmcp;

  const CoreId cores = 56;

  // Build the SCALE stencil workload: 8 prognostic fields, depth-2 halos.
  wl::WorkloadParams params;
  params.cores = cores;
  const auto stencil =
      wl::make_paper_workload(wl::PaperWorkload::kScale, params);
  const wl::Workload& workload = *stencil;
  std::printf("domain: %llu pages (%.1f MB equivalent), %u cores\n\n",
              static_cast<unsigned long long>(workload.footprint_base_pages()),
              workload.footprint_base_pages() * 4096.0 / 1e6, cores);

  // Ideal: everything resident.
  core::SimulationConfig config;
  config.machine.num_cores = cores;
  config.preload = true;
  const auto ideal = core::run_simulation(config, workload);
  const double step_ms = metrics::cycles_to_seconds(ideal.makespan) * 1e3 / 6;
  std::printf("all-resident ideal : %.2f ms per time step\n\n", step_ms);

  // Device memory holds only half the domain.
  config.preload = false;
  config.memory_fraction = 0.5;

  metrics::Table table({"configuration", "ms/step", "vs ideal", "faults",
                        "PCIe GB moved"});
  for (const PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kCmcp,
        PolicyKind::kCmcpDynamicP}) {
    for (const PageSizeClass size : {PageSizeClass::k4K, PageSizeClass::k64K}) {
      config.policy.kind = policy;
      config.policy.cmcp.p = 0.7;
      config.policy.dynamic_p_start = 0.5;
      config.machine.page_size = size;
      const auto result = core::run_simulation(config, workload);
      const double ms = metrics::cycles_to_seconds(result.makespan) * 1e3 / 6;
      const double gb = (result.app_total.pcie_bytes_in +
                         result.app_total.pcie_bytes_out) /
                        1e9;
      table.add_row({std::string(to_string(policy)) + " + " +
                         std::string(to_string(size)),
                     metrics::fmt_double(ms, 2),
                     metrics::fmt_percent(static_cast<double>(ideal.makespan) /
                                          result.makespan),
                     metrics::fmt_u64(result.app_total.major_faults),
                     metrics::fmt_double(gb, 2)});
    }
  }
  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "Takeaway: CMCP keeps the halo pages (the ones shared between "
      "neighbouring\ndomain strips) resident without any access-bit scanning, "
      "and 64 kB pages cut\nTLB misses without 2 MB pages' transfer bloat.\n");
  return 0;
}
