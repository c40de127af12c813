// Fig. 7: runtime of each workload from 8 to 56 cores under the five
// configurations of the paper — no data movement, regular PT + FIFO,
// PSPT + FIFO, PSPT + LRU, PSPT + CMCP — with the memory constraint set to
// the per-workload value of section 5.4.
//
// The grid (4 workloads x 7 core counts x 5 configs = 140 independent
// simulations) runs on all host cores via the parallel runner.
//
//   fig7_scalability [--json FILE]
//
// Markdown tables go to stdout, raw per-app CSV to results/fig7_<app>.csv;
// --json additionally writes the whole grid as one schema-versioned document.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE]\n", argv[0]);
      return 2;
    }
  }

  std::printf(
      "Fig. 7 — Performance of NPB workloads and SCALE: regular page tables "
      "vs PSPT under FIFO / LRU / CMCP\n(runtime in Mcycles, lower is "
      "better; relative-to-baseline in parentheses)\n\n");

  struct Config {
    const char* name;
    PageTableKind pt;
    PolicyKind policy;
    bool preload;
  };
  const Config configs[] = {
      {"no data movement", PageTableKind::kRegular, PolicyKind::kFifo, true},
      {"regular PT + FIFO", PageTableKind::kRegular, PolicyKind::kFifo, false},
      {"PSPT + FIFO", PageTableKind::kPspt, PolicyKind::kFifo, false},
      {"PSPT + LRU", PageTableKind::kPspt, PolicyKind::kLru, false},
      {"PSPT + CMCP", PageTableKind::kPspt, PolicyKind::kCmcp, false},
  };
  const auto core_counts = metrics::paper_core_counts();

  // Build the whole grid of specs, run it in parallel, then format.
  std::vector<metrics::RunSpec> specs;
  for (const auto which : wl::kAllPaperWorkloads) {
    for (const CoreId cores : core_counts) {
      for (const Config& c : configs) {
        metrics::RunSpec spec;
        spec.workload = which;
        spec.cores = cores;
        spec.pt_kind = c.pt;
        spec.policy.kind = c.policy;
        spec.policy.cmcp.p = wl::paper_best_p(which);
        spec.preload = c.preload;
        specs.push_back(spec);
      }
    }
  }
  const auto results = metrics::run_specs_parallel(specs);

  metrics::ResultWriter json_writer;
  json_writer.meta("figure", "7");
  json_writer.meta("fast_mode", metrics::fast_mode() ? "true" : "false");

  std::size_t idx = 0;
  for (const auto which : wl::kAllPaperWorkloads) {
    std::vector<std::string> headers = {"cores"};
    for (const Config& c : configs) headers.emplace_back(c.name);
    metrics::Table table(headers);
    metrics::ResultWriter csv_writer;

    double cmcp_vs_fifo_at_max = 0.0;
    for (const CoreId cores : core_counts) {
      std::vector<std::string> row = {std::to_string(cores)};
      Cycles baseline = 0, fifo = 0, cmcp = 0;
      for (const Config& c : configs) {
        const auto& result = results[idx++];
        if (c.preload) baseline = result.makespan;
        if (c.policy == PolicyKind::kFifo && c.pt == PageTableKind::kPspt)
          fifo = result.makespan;
        if (c.policy == PolicyKind::kCmcp) cmcp = result.makespan;
        const double rel =
            static_cast<double>(baseline) / static_cast<double>(result.makespan);
        row.push_back(metrics::fmt_double(result.makespan / 1e6, 1) + " (" +
                      metrics::fmt_percent(rel, 0) + ")");
        const auto fill = [&](metrics::ResultWriter::Row& out) {
          out.set("workload", to_string(which))
              .set("cores", cores)
              .set("config", c.name)
              .set("pt", to_string(c.pt))
              .set("policy", to_string(c.policy))
              .set("preload", static_cast<int>(c.preload))
              .set("makespan", result.makespan)
              .set("relative", rel)
              .set("major_faults", result.app_total.major_faults)
              .set("remote_invals",
                   result.app_total.remote_invalidations_received);
        };
        fill(csv_writer.add_row());
        if (!json_path.empty()) fill(json_writer.add_row());
      }
      cmcp_vs_fifo_at_max = static_cast<double>(fifo) / cmcp - 1.0;
      table.add_row(std::move(row));
    }

    std::printf("--- %s.B (memory: %s of footprint) ---\n%s",
                std::string(to_string(which)).c_str(),
                metrics::fmt_percent(wl::paper_memory_fraction(which), 0).c_str(),
                table.markdown().c_str());
    std::printf("CMCP vs FIFO at max cores: %+.1f%% (paper: BT +38%%, LU +25%%, "
                "CG +23%%, SCALE +13%%)\n\n",
                100.0 * cmcp_vs_fifo_at_max);
    csv_writer.save_csv("results/fig7_" + std::string(to_string(which)) +
                        ".csv");
  }
  std::printf("CSV written to results/fig7_<app>.csv\n");
  if (!json_path.empty()) {
    json_writer.save_json(json_path);
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  return 0;
}
