#include "metrics/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace cmcp::metrics {

std::vector<core::SimulationResult> run_jobs_parallel(
    const std::vector<std::function<core::SimulationResult()>>& jobs,
    unsigned threads) {
  std::vector<core::SimulationResult> results(jobs.size());
  if (jobs.empty()) return results;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(threads, jobs.size());

  // Work stealing via a shared atomic cursor: jobs have wildly different
  // durations (56-core runs dwarf 8-core ones), so static partitioning
  // would leave workers idle. Only the worker that claimed job i writes
  // results[i] and errors[i], so neither vector needs a lock. A job that
  // throws must surface its exception on the calling thread, not
  // std::terminate the process (what an exception escaping a std::thread
  // body does).
  //
  // The reported error is the lowest-index one, as the serial loop would
  // throw, at every thread count: claims go out in index order, so every
  // job below the lowest failing index was claimed before any job failed,
  // and `failed` only stops workers from claiming more. The lowest failing
  // job therefore always runs to its throw.
  std::vector<std::exception_ptr> errors(jobs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        results[i] = jobs[i]();
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  for (const std::exception_ptr& error : errors)
    if (error != nullptr) std::rethrow_exception(error);
  return results;
}

std::vector<core::SimulationResult> run_specs_parallel(
    const std::vector<RunSpec>& specs, unsigned threads) {
  std::vector<std::function<core::SimulationResult()>> jobs;
  jobs.reserve(specs.size());
  for (const RunSpec& spec : specs)
    jobs.emplace_back([spec] { return run_spec(spec); });
  return run_jobs_parallel(jobs, threads);
}

}  // namespace cmcp::metrics
