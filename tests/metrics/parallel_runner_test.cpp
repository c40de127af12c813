#include "metrics/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cmcp::metrics {
namespace {

std::vector<RunSpec> small_sweep() {
  std::vector<RunSpec> specs;
  for (const PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kCmcp}) {
    for (const CoreId cores : {4u, 8u}) {
      RunSpec spec;
      spec.workload = wl::PaperWorkload::kScale;
      spec.cores = cores;
      spec.scale = 0.05;
      spec.policy.kind = policy;
      specs.push_back(spec);
    }
  }
  return specs;
}

TEST(ParallelRunner, MatchesSerialExecutionExactly) {
  const auto specs = small_sweep();
  const auto parallel = run_specs_parallel(specs, 4);
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto serial = run_spec(specs[i]);
    EXPECT_EQ(parallel[i].makespan, serial.makespan) << "spec " << i;
    EXPECT_EQ(parallel[i].app_total.major_faults,
              serial.app_total.major_faults);
    EXPECT_EQ(parallel[i].app_total.remote_invalidations_received,
              serial.app_total.remote_invalidations_received);
  }
}

TEST(ParallelRunner, SingleThreadFallback) {
  const auto specs = small_sweep();
  const auto one = run_specs_parallel(specs, 1);
  const auto many = run_specs_parallel(specs, 8);
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(one[i].makespan, many[i].makespan);
}

TEST(ParallelRunner, EmptyInput) {
  EXPECT_TRUE(run_specs_parallel({}, 4).empty());
  EXPECT_TRUE(run_jobs_parallel({}, 4).empty());
}

TEST(ParallelRunner, JobsVariantPreservesOrder) {
  std::vector<std::function<core::SimulationResult()>> jobs;
  for (int i = 1; i <= 6; ++i) {
    jobs.emplace_back([i] {
      core::SimulationResult r;
      r.makespan = static_cast<Cycles>(i * 100);
      return r;
    });
  }
  const auto results = run_jobs_parallel(jobs, 3);
  ASSERT_EQ(results.size(), 6u);
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(results[i].makespan, static_cast<Cycles>((i + 1) * 100));
}

/// The message of the exception run_jobs_parallel rethrows, or "" if none.
std::string rethrown_message(
    const std::vector<std::function<core::SimulationResult()>>& jobs,
    unsigned threads) {
  try {
    run_jobs_parallel(jobs, threads);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Thread counts under test; 0 picks the hardware concurrency.
constexpr unsigned kThreadCounts[] = {1, 2, 3, 8, 0};

TEST(ParallelRunner, TwoFailuresRethrowTheLowestIndex) {
  // Jobs 3 and 6 of 8 throw. With a pool, job 3 throws only after job 6 has
  // thrown, so a runner that reports the first failure in completion order
  // would surface job 6. The serial loop throws job 3; so must every pool.
  for (const unsigned threads : kThreadCounts) {
    std::atomic<bool> six_thrown{false};
    const bool pooled = threads != 1;
    std::vector<std::function<core::SimulationResult()>> jobs;
    for (int i = 0; i < 8; ++i) {
      jobs.emplace_back([i, pooled, &six_thrown]() -> core::SimulationResult {
        if (i == 6) {
          six_thrown.store(true);
          throw std::runtime_error("job 6");
        }
        if (i == 3) {
          // Bounded wait: a single hardware thread or a runner that never
          // claims job 6 must not deadlock the test.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (pooled && !six_thrown.load() &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          throw std::runtime_error("job 3");
        }
        return {};
      });
    }
    EXPECT_EQ(rethrown_message(jobs, threads), "job 3")
        << threads << " threads";
  }
}

TEST(ParallelRunner, SingleFailureSurfacesAtEveryThreadCount) {
  std::vector<std::function<core::SimulationResult()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.emplace_back([i]() -> core::SimulationResult {
      if (i == 3) throw std::runtime_error("job 3");
      return {};
    });
  }
  for (const unsigned threads : kThreadCounts)
    EXPECT_EQ(rethrown_message(jobs, threads), "job 3")
        << threads << " threads";
}

std::string serialize_summary(const core::SimulationResult& result) {
  std::ostringstream os;
  os << "makespan=" << result.makespan << '\n';
  for (const auto& [name, value] : result_summary(result))
    os << name << '=' << value << '\n';
  for (const auto& c : result.per_core)
    os << c.accesses << ',' << c.dtlb_misses << ',' << c.major_faults << ','
       << c.minor_faults << ',' << c.evictions << ','
       << c.remote_invalidations_received << ',' << c.cycles_compute << ','
       << c.cycles_fault << ',' << c.cycles_barrier << ','
       << c.cycles_pcie_wait << '\n';
  return os.str();
}

/// One run of `spec` with its own event sink; the JSONL trace lands in
/// `trace`.
core::SimulationResult run_traced(const RunSpec& spec, std::string& trace) {
  wl::WorkloadParams base;
  base.cores = spec.cores;
  base.seed = spec.seed;
  base.scale = spec.scale;
  const auto workload = wl::make_paper_workload(spec.workload, base, spec.size);
  sim::trace::EventSink sink;
  core::SimulationConfig config = spec.to_config();
  config.trace = &sink;
  const auto result = core::run_simulation(config, *workload);
  std::ostringstream os;
  sim::trace::export_jsonl(sink, spec.describe(), result_summary(result), os);
  trace = os.str();
  return result;
}

TEST(ParallelRunner, RunSpecsParallelMatchesSerialExecution) {
  // Two specs executed (a) one by one via run_spec and (b) concurrently via
  // run_specs_parallel: the per-core counters must be byte-identical —
  // concurrent runs share no state. The same holds for traced runs: jobs on
  // run_jobs_parallel that attach their own sinks write the JSONL traces a
  // serial loop writes.
  std::vector<RunSpec> specs(2);
  for (int i = 0; i < 2; ++i) {
    specs[i].workload = wl::PaperWorkload::kBt;
    specs[i].cores = 8;
    specs[i].scale = 0.15;
    specs[i].seed = 42 + static_cast<std::uint64_t>(i);
    specs[i].policy.kind = i == 0 ? PolicyKind::kCmcp : PolicyKind::kFifo;
    specs[i].memory_fraction = 1.5;
    specs[i].simcheck = false;
  }

  std::vector<std::string> serial_summaries, serial_traces(2);
  for (int i = 0; i < 2; ++i) {
    serial_summaries.push_back(serialize_summary(run_spec(specs[i])));
    const auto traced = run_traced(specs[i], serial_traces[i]);
    EXPECT_EQ(serialize_summary(traced), serial_summaries[i]) << i;
    EXPECT_EQ(serial_traces[i].rfind("{\"type\":\"meta\"", 0), 0u) << i;
  }

  const auto results = run_specs_parallel(specs, 2);
  ASSERT_EQ(results.size(), 2u);
  std::vector<std::string> parallel_traces(2);
  std::vector<std::function<core::SimulationResult()>> jobs;
  for (int i = 0; i < 2; ++i)
    jobs.push_back([&, i] { return run_traced(specs[i], parallel_traces[i]); });
  const auto traced = run_jobs_parallel(jobs, 2);
  ASSERT_EQ(traced.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(serialize_summary(results[i]), serial_summaries[i]) << i;
    EXPECT_EQ(serialize_summary(traced[i]), serial_summaries[i]) << i;
    EXPECT_EQ(parallel_traces[i], serial_traces[i]) << i;
  }
}

}  // namespace
}  // namespace cmcp::metrics
