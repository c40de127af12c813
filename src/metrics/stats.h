// Small statistics helpers for reporting.
#pragma once

#include "common/types.h"
#include "sim/cost_model.h"

namespace cmcp::metrics {

/// Convert virtual cycles to wall seconds at the modelled clock.
inline double cycles_to_seconds(Cycles cycles) {
  return static_cast<double>(cycles) / (sim::CostModel::clock_ghz * 1e9);
}

}  // namespace cmcp::metrics
