// The benchmark's only window onto the cmcp library. Every library call the
// benchmark makes lives in sim_api.cpp, so an API change in src/ touches one
// benchmark file; the runner (main.cpp) sees plain names and numbers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bench {

/// One benchmark workload: a fixed simulator configuration whose inputs are
/// generated from the run's seed.
struct WorkloadDef {
  const char* name;
  /// Host threads the simulation engine runs on.
  unsigned threads;
  /// Workload whose simulated results must equal this one's (same run on
  /// another engine path), or nullptr.
  const char* twin;
  /// Pinned outcome for seed 1234 (results/bench/BENCH_10.json and the
  /// standalone reference count); 0 = not pinned.
  std::uint64_t golden_makespan;
  std::uint64_t golden_refs;
};

/// The six workloads, in their canonical order (twins before their users).
std::span<const WorkloadDef> workloads();
const WorkloadDef* find_workload(std::string_view name);

/// untraced: measures end-to-end numbers. spans: wraps the policy and the
/// workload streams with host-time spans. events: attaches the simulator's
/// own trace sink.
enum class Mode : std::uint8_t { kUntraced, kSpans, kEvents };
std::string_view to_string(Mode mode);
bool parse_mode(std::string_view text, Mode* out);

/// What one sample (one full simulation) measured. `values` holds host
/// timings, simulated counters and per-layer numbers by name; `summary` is
/// the simulator's result summary, which must repeat exactly.
struct Sample {
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, std::uint64_t>> summary;
};

Sample run_sample(const WorkloadDef& workload, std::uint64_t seed, Mode mode);

/// Whether the library was built with SimCheck invariant checkpoints.
bool simcheck_compiled_in();

}  // namespace bench
