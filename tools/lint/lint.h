// cmcp_lint: domain-specific determinism & concurrency rules for this repo.
//
// Generic linters (clang-tidy, compiler warnings) cannot know this
// codebase's contracts: virtual time is integral `Cycles`, hot state is
// dense unit-indexed (docs/performance.md), traces must be byte-identical
// across runs and SimCheck modes (docs/invariants.md), and the one
// host-threaded path (metrics/parallel_runner) shares no guarded state, so
// the tree holds no lock. Each rule here
// mechanizes one of those contracts as a reviewable, CI-gated check over
// the token stream of every translation unit in compile_commands.json plus
// every header under the source tree.
//
// Rule catalog (ids are stable; suppress with `// cmcp-lint: allow(id)`):
//   hash-keyed-index       unordered container keyed by UnitIdx/Pfn/Vpn/
//                          CoreId in hot-path dirs (mm, sim, core, policy):
//                          dense direct-indexed storage is the repo layout
//                          discipline — and hash iteration order leaks.
//   ordered-pointer-key    std::map/set keyed by a pointer: comparison
//                          order follows the allocator, not the simulation.
//   hashed-pointer-key     unordered container keyed by a pointer: same
//                          leak through the hash of the address.
//   pointer-address-cast   casting a pointer to uintptr_t/intptr_t: address
//                          values must never reach simulation results.
//   wallclock-time         wall-clock reads (std::chrono clocks, time(),
//                          gettimeofday...) outside bench/wallclock.cpp:
//                          virtual time comes from core clocks only.
//   unseeded-entropy       rand()/std::random_device/raw engine types
//                          outside common/rng.cpp: all randomness flows
//                          from the seeded, logged common::Rng.
//   float-virtual-time     float/double variables holding cycles/ticks, or
//                          float literals assigned into Cycles variables:
//                          virtual time is integral by contract.
//   check-side-effect      ++/--/assignment inside CMCP_CHECK /
//                          CMCP_CHECK_MSG / CMCP_SIMCHECK_POINT arguments:
//                          checks must be observation-only (SimCheck ON vs
//                          OFF must produce byte-identical traces).
//   raw-mutex              std::mutex / lock types anywhere: the tree holds
//                          no host lock (the runner's jobs own their result
//                          and error slots).
//   stray-thread           std::thread/async/atomic outside
//                          metrics/parallel_runner: one sanctioned
//                          parallelism entry point keeps determinism
//                          auditable.
//   volatile-qualifier     volatile is not a synchronization tool.
//   unordered-iteration    range-for / .begin() iteration over a local
//                          unordered container: iteration order is
//                          unspecified and must not reach output paths
//                          unsorted.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cmcp::lint {

struct Finding {
  std::string path;     ///< repo-relative, forward slashes
  unsigned line = 0;    ///< 1-based
  std::string rule;     ///< rule id from the catalog
  std::string message;  ///< one-line diagnosis
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// The stable rule catalog, in reporting order.
const std::vector<RuleInfo>& rule_catalog();

/// Lint one file's contents. `path` must be repo-relative with forward
/// slashes (e.g. "src/mm/page_table.h"); it selects which rules apply and
/// which exemptions hold. Findings are ordered by line.
std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view content);

/// Stable ordering for reports: by path, then line, then rule id.
void sort_findings(std::vector<Finding>& findings);

}  // namespace cmcp::lint
