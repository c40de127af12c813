#include "metrics/stats.h"

namespace cmcp::metrics {

double cycles_to_seconds(Cycles cycles, const sim::CostModel& cost) {
  return static_cast<double>(cycles) / (cost.clock_ghz * 1e9);
}

}  // namespace cmcp::metrics
