// CMCP_BENCH_FAST: the one setting the fig/table/ablation benches read from
// the environment. The library never reads it; only bench/ and its test
// include this header.
#pragma once

#include <cstdlib>
#include <vector>

#include "common/types.h"

namespace cmcp::metrics {

/// True when the CMCP_BENCH_FAST environment variable is set: benches shrink
/// their sweeps for quick smoke runs.
inline bool fast_mode() { return std::getenv("CMCP_BENCH_FAST") != nullptr; }

/// Core-count sweep used by Fig. 6/7 and Table 1 (the paper's x-axis).
inline std::vector<CoreId> paper_core_counts() {
  if (fast_mode()) return {8, 24, 56};
  return {8, 16, 24, 32, 40, 48, 56};
}

}  // namespace cmcp::metrics
