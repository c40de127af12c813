// Small statistics helpers for reporting.
#pragma once

#include "common/types.h"
#include "sim/cost_model.h"

namespace cmcp::metrics {

/// Convert virtual cycles to wall seconds at the modelled clock.
double cycles_to_seconds(Cycles cycles, const sim::CostModel& cost);

}  // namespace cmcp::metrics
