// Thread-parallel experiment runner. Every Simulation is a self-contained
// deterministic computation, so independent RunSpecs execute concurrently
// with bit-identical results to serial execution — the bench sweeps
// (hundreds of runs) use this to saturate the build machine.
#pragma once

#include <functional>
#include <vector>

#include "metrics/experiment.h"

namespace cmcp::metrics {

/// Run every spec (order-preserving result vector) on up to `threads`
/// worker threads. threads == 0 picks the hardware concurrency.
std::vector<core::SimulationResult> run_specs_parallel(
    const std::vector<RunSpec>& specs, unsigned threads = 0);

/// Generic variant: evaluate `jobs[i]()` concurrently into slot i. Each job
/// must be independent of the others. If any job throws, the lowest-index
/// exception (the one a serial loop would throw) is rethrown on the calling
/// thread after all workers have drained, and the remaining unclaimed jobs
/// are skipped.
std::vector<core::SimulationResult> run_jobs_parallel(
    const std::vector<std::function<core::SimulationResult()>>& jobs,
    unsigned threads = 0);

}  // namespace cmcp::metrics
