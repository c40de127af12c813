// Table 1: per-core average page faults, remote TLB invalidations and dTLB
// misses for FIFO / LRU / CMCP on every workload, as a function of the core
// count. Also reports the lock-synchronization growth of section 5.5.
//
//   table1_policy_stats [--json FILE]
//
// Markdown tables go to stdout, raw per-app CSV to results/table1_<app>.csv;
// --json additionally writes the whole grid (policy-internal stats included)
// as one schema-versioned document.
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
      "Table 1 — Per-core average page faults, remote TLB invalidations and "
      "dTLB misses\n(PSPT; memory constraint per section 5.4)\n\n");

  const PolicyKind policies[] = {PolicyKind::kFifo, PolicyKind::kLru,
                                 PolicyKind::kCmcp};
  const char* attributes[] = {"page faults", "remote TLB invalidations",
                              "dTLB misses"};

  const auto core_counts = metrics::paper_core_counts();

  metrics::ResultWriter json_writer;
  json_writer.meta("table", "1");
  json_writer.meta("fast_mode", metrics::fast_mode() ? "true" : "false");

  for (const auto which : wl::kAllPaperWorkloads) {
    std::vector<std::string> headers = {"policy", "attribute"};
    for (const CoreId cores : core_counts)
      headers.push_back(std::to_string(cores) + " cores");
    metrics::Table table(headers);
    metrics::ResultWriter csv_writer;

    // rows[policy][attribute][core-index]
    std::vector<std::vector<std::vector<std::string>>> cells(
        3, std::vector<std::vector<std::string>>(3));
    std::vector<Cycles> lock_wait_fifo(core_counts.size(), 0);
    std::vector<Cycles> lock_wait_lru(core_counts.size(), 0);

    // Full policy x core-count grid, executed in parallel.
    std::vector<metrics::RunSpec> specs;
    for (const CoreId cores : core_counts) {
      for (const PolicyKind policy : policies) {
        metrics::RunSpec spec;
        spec.workload = which;
        spec.cores = cores;
        spec.policy.kind = policy;
        spec.policy.cmcp.p = wl::paper_best_p(which);
        specs.push_back(spec);
      }
    }
    const auto results = metrics::run_specs_parallel(specs);

    std::size_t idx = 0;
    for (std::size_t ci = 0; ci < core_counts.size(); ++ci) {
      for (std::size_t pi = 0; pi < 3; ++pi) {
        const auto& result = results[idx++];
        cells[pi][0].push_back(
            metrics::fmt_double(result.avg_major_faults_per_core(), 0));
        cells[pi][1].push_back(
            metrics::fmt_double(result.avg_remote_invalidations_per_core(), 0));
        cells[pi][2].push_back(
            metrics::fmt_double(result.avg_dtlb_misses_per_core(), 0));
        if (policies[pi] == PolicyKind::kFifo)
          lock_wait_fifo[ci] = result.app_total.cycles_lock_wait;
        if (policies[pi] == PolicyKind::kLru)
          lock_wait_lru[ci] = result.app_total.cycles_lock_wait;

        const auto fill = [&](metrics::ResultWriter::Row& out) {
          out.set("workload", to_string(which))
              .set("cores", core_counts[ci])
              .set("policy", to_string(policies[pi]))
              .set("major_faults_per_core", result.avg_major_faults_per_core())
              .set("remote_invals_per_core",
                   result.avg_remote_invalidations_per_core())
              .set("dtlb_misses_per_core", result.avg_dtlb_misses_per_core())
              .set("lock_wait_cycles", result.app_total.cycles_lock_wait)
              .set("makespan", result.makespan);
        };
        fill(csv_writer.add_row());
        if (!json_path.empty()) {
          auto& row = json_writer.add_row();
          fill(row);
          // Enumerable policy internals (the stats() visitor), no
          // hard-coded key list.
          for (const auto& [name, value] : result.policy_stats)
            row.set("policy." + name, value);
        }
      }
    }

    for (std::size_t pi = 0; pi < 3; ++pi) {
      for (std::size_t ai = 0; ai < 3; ++ai) {
        std::vector<std::string> row = {
            ai == 0 ? std::string(to_string(policies[pi])) : std::string(),
            attributes[ai]};
        for (auto& cell : cells[pi][ai]) row.push_back(std::move(cell));
        table.add_row(std::move(row));
      }
    }

    std::printf("--- %s.B ---\n%s", std::string(to_string(which)).c_str(),
                table.markdown().c_str());
    // Section 5.5's lock observation at max core count.
    const double lock_growth =
        lock_wait_fifo.back() > 0
            ? static_cast<double>(lock_wait_lru.back()) / lock_wait_fifo.back()
            : 0.0;
    std::printf(
        "LRU vs FIFO lock-synchronization cycles at %u cores: %.1fx (paper "
        "section 5.5: up to 8x)\n\n",
        core_counts.back(), lock_growth);
    csv_writer.save_csv("results/table1_" + std::string(to_string(which)) +
                        ".csv");
  }
  std::printf("CSV written to results/table1_<app>.csv\n");
  if (!json_path.empty()) {
    json_writer.save_json(json_path);
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  return 0;
}
