// cmcp_sim — command-line front end for single simulation runs.
//
//   cmcp_sim --workload bt --cores 56 --policy cmcp --p 0.9
//            --fraction 0.64 --page-size 4k [--pt pspt] [--seed 42]
//            [--size small|big] [--prefetch N] [--hw-tlb] [--preload]
//            [--csv out.csv] [--json out.json] [--trace out.trace.json]
//
// Prints the run's headline observables; with --csv appends one row (with
// header when creating the file) for scripting sweeps; with --json writes a
// schema-versioned result document; with --trace records a structured event
// trace (Perfetto by default, see docs/observability.md).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "cmcp.h"
#include "common/core_mask.h"
#include "common/parse_number.h"
#include "metrics/resilience_report.h"

namespace {

using namespace cmcp;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --workload bt|lu|cg|scale   (default bt)\n"
      "  --size small|big            footprint class (default small)\n"
      "  --cores N                   simulated cores, 1..1087 (default 56)\n"
      "  --policy fifo|lru|cmcp|clock|lfu|random|cmcp-dyn|arc (default cmcp)\n"
      "  --p X                       CMCP prioritized ratio, 0 <= X <= 1\n"
      "                              (default per workload)\n"
      "  --pt pspt|regular           page tables (default pspt)\n"
      "  --fraction X                memory provided / footprint, 0 < X <= 16\n"
      "                              (default paper)\n"
      "  --page-size 4k|64k|2m       (default 4k)\n"
      "  --prefetch N                sequential readahead degree (default 0)\n"
      "  --scan-ms X                 LRU scan period in ms, > 0 (default 10)\n"
      "  --hw-tlb                    hypothetical TLB directory hardware\n"
      "  --preload                   no-data-movement baseline\n"
      "  --seed N                    workload seed (default 1234)\n"
      "  --faults SPEC               deterministic fault injection, e.g.\n"
      "                              seed=7,pcie=0.01,poison=2 (docs/robustness.md)\n"
      "  --csv FILE                  append results as CSV\n"
      "  --json FILE                 write results as schema-versioned JSON\n"
      "  --trace FILE                record a structured event trace\n"
      "  --trace-format perfetto|jsonl  trace export format (default perfetto)\n"
      "  --dump-trace FILE           write the workload's access trace and\n"
      "                              exit without simulating\n"
      "  --replay-trace FILE         run a recorded trace instead\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cmcp;

  wl::PaperWorkload workload_kind = wl::PaperWorkload::kBt;
  wl::WorkloadSize size = wl::WorkloadSize::kSmall;
  core::SimulationConfig config;
  config.machine.num_cores = 56;
  config.policy.kind = PolicyKind::kCmcp;
  std::optional<double> fraction;
  std::optional<double> p;
  std::uint64_t seed = 1234;
  std::optional<std::string> csv_path;
  std::optional<std::string> json_path;
  std::optional<std::string> trace_path;
  sim::trace::Format trace_format = sim::trace::Format::kPerfetto;
  std::optional<std::string> dump_trace;
  std::optional<std::string> replay_trace;

  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--workload") {
      const std::string_view v = need_value(i);
      bool found = false;
      for (const auto candidate : wl::kAllPaperWorkloads)
        if (to_string(candidate) == v) {
          workload_kind = candidate;
          found = true;
        }
      if (!found) usage(argv[0]);
    } else if (arg == "--size") {
      const std::string_view v = need_value(i);
      if (v == "small")
        size = wl::WorkloadSize::kSmall;
      else if (v == "big")
        size = wl::WorkloadSize::kBig;
      else
        usage(argv[0]);
    } else if (arg == "--cores") {
      // One scanner pseudo-core rides above the app cores (sim/machine.h).
      config.machine.num_cores = common::parse_flag<CoreId>(
          arg, need_value(i), 1, CoreMask::kMaxCores - 1);
    } else if (arg == "--policy") {
      const std::string_view v = need_value(i);
      if (v == "fifo") config.policy.kind = PolicyKind::kFifo;
      else if (v == "lru") config.policy.kind = PolicyKind::kLru;
      else if (v == "cmcp") config.policy.kind = PolicyKind::kCmcp;
      else if (v == "clock") config.policy.kind = PolicyKind::kClock;
      else if (v == "lfu") config.policy.kind = PolicyKind::kLfu;
      else if (v == "random") config.policy.kind = PolicyKind::kRandom;
      else if (v == "cmcp-dyn") config.policy.kind = PolicyKind::kCmcpDynamicP;
      else if (v == "arc") config.policy.kind = PolicyKind::kArc;
      else usage(argv[0]);
    } else if (arg == "--p") {
      p = common::parse_flag<double>(arg, need_value(i), 0.0, 1.0);
    } else if (arg == "--pt") {
      const std::string_view v = need_value(i);
      if (v == "pspt") config.pt_kind = PageTableKind::kPspt;
      else if (v == "regular") config.pt_kind = PageTableKind::kRegular;
      else usage(argv[0]);
    } else if (arg == "--fraction") {
      // Any fraction above 1 already holds the whole footprint; the cap keeps
      // a value such as 1e9 from dying in bad_alloc while the frame table is
      // sized.
      const std::string_view text = need_value(i);
      const double value = common::parse_flag<double>(arg, text);
      if (!(value > 0 && value <= 16)) {
        std::fprintf(stderr, "--fraction: '%.*s' is out of range (0, 16]\n",
                     static_cast<int>(text.size()), text.data());
        std::exit(2);
      }
      fraction = value;
    } else if (arg == "--page-size") {
      const std::string_view v = need_value(i);
      if (v == "4k") config.machine.page_size = PageSizeClass::k4K;
      else if (v == "64k") config.machine.page_size = PageSizeClass::k64K;
      else if (v == "2m") config.machine.page_size = PageSizeClass::k2M;
      else usage(argv[0]);
    } else if (arg == "--prefetch") {
      config.prefetch_degree = common::parse_flag<unsigned>(arg, need_value(i));
    } else if (arg == "--scan-ms") {
      // A period of 0 cycles would never advance the scanner's tick, and one
      // past 2^53 cycles (the engine's virtual-time bound) overflows it.
      const std::string_view text = need_value(i);
      const double period = common::parse_flag<double>(arg, text) * 1e6 *
                            sim::CostModel::clock_ghz;
      if (!(period >= 1 && period <= 0x1p53)) {
        std::fprintf(stderr,
                     "--scan-ms: '%.*s' is out of range (a period of 1 to "
                     "2^53 cycles)\n",
                     static_cast<int>(text.size()), text.data());
        std::exit(2);
      }
      config.machine.cost.scan_period = static_cast<Cycles>(period);
    } else if (arg == "--hw-tlb") {
      config.machine.tlb_coherence = sim::TlbCoherence::kHardwareDirectory;
    } else if (arg == "--preload") {
      config.preload = true;
    } else if (arg == "--seed") {
      seed = common::parse_flag<std::uint64_t>(arg, need_value(i));
    } else if (arg == "--faults") {
      const std::string error =
          sim::FaultPlanConfig::parse(need_value(i), &config.faults);
      if (!error.empty()) {
        std::fprintf(stderr, "--faults: %s\n", error.c_str());
        std::exit(2);
      }
    } else if (arg == "--csv") {
      csv_path = need_value(i);
    } else if (arg == "--json") {
      json_path = need_value(i);
    } else if (arg == "--trace") {
      trace_path = need_value(i);
    } else if (arg == "--trace-format") {
      if (!sim::trace::parse_format(need_value(i), &trace_format))
        usage(argv[0]);
    } else if (arg == "--dump-trace") {
      dump_trace = need_value(i);
    } else if (arg == "--replay-trace") {
      replay_trace = need_value(i);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage(argv[0]);
    }
  }

  config.memory_fraction =
      fraction.value_or(wl::paper_memory_fraction(workload_kind));
  config.policy.cmcp.p = p.value_or(wl::paper_best_p(workload_kind));
  config.policy.dynamic_p_start = config.policy.cmcp.p;

  std::unique_ptr<wl::Workload> workload;
  if (replay_trace) {
    wl::TraceParseResult parsed = wl::TraceWorkload::load(*replay_trace);
    if (parsed.trace == nullptr) {
      std::fprintf(stderr, "%s\n", parsed.error.c_str());
      return 2;
    }
    workload = std::move(parsed.trace);
    config.machine.num_cores = workload->num_cores();
  } else {
    wl::WorkloadParams params;
    params.cores = config.machine.num_cores;
    params.seed = seed;
    workload = wl::make_paper_workload(workload_kind, params, size);
  }
  if (dump_trace) {
    wl::save_trace(*workload, *dump_trace);
    std::printf("trace           : written to %s\n", dump_trace->c_str());
    return 0;
  }
  sim::trace::EventSink sink;
  if (trace_path) config.trace = &sink;
  const auto result = core::run_simulation(config, *workload);

  // Serialized run description shared by the trace and JSON exports: mirror
  // this invocation into a RunSpec so describe() covers every field, then
  // append the CLI-only knobs.
  metrics::RunSpec spec;
  spec.workload = workload_kind;
  spec.size = size;
  spec.cores = config.machine.num_cores;
  spec.pt_kind = config.pt_kind;
  spec.policy = config.policy;
  spec.memory_fraction = config.memory_fraction;
  spec.preload = config.preload;
  spec.page_size = config.machine.page_size;
  spec.seed = seed;
  spec.faults = config.faults;
  sim::trace::Metadata meta = spec.describe();
  meta.emplace_back("prefetch_degree", std::to_string(config.prefetch_degree));
  meta.emplace_back("scan_period",
                    std::to_string(config.machine.cost.scan_period));
  meta.emplace_back("tlb_coherence",
                    config.machine.tlb_coherence ==
                            sim::TlbCoherence::kHardwareDirectory
                        ? "hw_directory"
                        : "shootdown");
  if (replay_trace) meta.emplace_back("replay_trace", *replay_trace);

  const double seconds = metrics::cycles_to_seconds(result.makespan);
  std::printf("workload        : %s.%s, %u cores, seed %llu\n",
              std::string(to_string(workload_kind)).c_str(),
              std::string(size_suffix(size)).c_str(), config.machine.num_cores,
              static_cast<unsigned long long>(seed));
  std::printf("config          : %s + %s, %s pages, %.0f%% memory%s%s\n",
              std::string(to_string(config.pt_kind)).c_str(),
              std::string(to_string(config.policy.kind)).c_str(),
              std::string(to_string(config.machine.page_size)).c_str(),
              100.0 * config.memory_fraction,
              config.preload ? ", preloaded" : "",
              config.machine.tlb_coherence == sim::TlbCoherence::kHardwareDirectory
                  ? ", hw TLB directory"
                  : "");
  std::printf("runtime         : %llu cycles (%.3f s at %.3f GHz)\n",
              static_cast<unsigned long long>(result.makespan), seconds,
              sim::CostModel::clock_ghz);
  std::printf("major faults    : %llu (%.0f per core)\n",
              static_cast<unsigned long long>(result.app_total.major_faults),
              result.avg_major_faults_per_core());
  std::printf("minor faults    : %llu\n",
              static_cast<unsigned long long>(result.app_total.minor_faults));
  std::printf("remote invals   : %llu (%.0f per core)\n",
              static_cast<unsigned long long>(
                  result.app_total.remote_invalidations_received),
              result.avg_remote_invalidations_per_core());
  std::printf("dTLB misses     : %llu\n",
              static_cast<unsigned long long>(result.app_total.dtlb_misses));
  std::printf("PCIe moved      : %.2f GB in, %.2f GB out\n",
              result.app_total.pcie_bytes_in / 1e9,
              result.app_total.pcie_bytes_out / 1e9);
  if (result.app_total.prefetches > 0)
    std::printf("prefetches      : %llu issued, %llu hit\n",
                static_cast<unsigned long long>(result.app_total.prefetches),
                static_cast<unsigned long long>(result.app_total.prefetch_hits));
  if (result.faults_enabled)
    std::printf("%s", metrics::format_resilience_report(
                          result.fault_config, result.fault_stats,
                          result.capacity_units)
                          .c_str());

  if (trace_path) {
    sim::trace::write_trace_file(sink, meta, metrics::result_summary(result),
                                 trace_format, *trace_path);
    std::printf("trace           : %zu events written to %s (%s)\n",
                sink.size(), trace_path->c_str(),
                std::string(to_string(trace_format)).c_str());
  }

  if (csv_path || json_path) {
    metrics::ResultWriter writer;
    for (const auto& [key, value] : meta) writer.meta(key, value);
    auto& row = writer.add_row();
    // Column names predate ResultWriter; keep them so old files still append.
    row.set("workload", to_string(workload_kind))
        .set("size", size_suffix(size))
        .set("cores", config.machine.num_cores)
        .set("pt", to_string(config.pt_kind))
        .set("policy", to_string(config.policy.kind))
        .set("p", config.policy.cmcp.p)
        .set("page_size", to_string(config.machine.page_size))
        .set("fraction", config.memory_fraction)
        .set("preload", static_cast<int>(config.preload))
        .set("seed", seed)
        .set("makespan", result.makespan)
        .set("major_faults", result.app_total.major_faults)
        .set("minor_faults", result.app_total.minor_faults)
        .set("remote_invals", result.app_total.remote_invalidations_received)
        .set("dtlb_misses", result.app_total.dtlb_misses)
        .set("pcie_bytes_in", result.app_total.pcie_bytes_in)
        .set("pcie_bytes_out", result.app_total.pcie_bytes_out);
    if (csv_path) {
      writer.append_csv(*csv_path);
      std::printf("csv             : appended to %s\n", csv_path->c_str());
    }
    if (json_path) {
      // The JSON document has room for the full summary (policy stats
      // included) without disturbing the CSV column set.
      for (const auto& [key, value] : metrics::result_summary(result))
        row.set(key, value);
      writer.save_json(*json_path);
      std::printf("json            : written to %s\n", json_path->c_str());
    }
  }
  return 0;
}
