#include "sim/pcie_link.h"

#include <algorithm>

#include "sim/fault_plan.h"

namespace cmcp::sim {

PcieTransferOutcome PcieLink::transfer(PcieDir dir, Cycles ready_at,
                                       std::uint64_t bytes, FaultPlan* plan) {
  const int d = static_cast<int>(dir);
  PcieTransferOutcome out;
  out.start = std::max(ready_at, busy_until_[d]);
  out.queue_wait = out.start - ready_at;
  out.attempt_cost =
      CostModel::pcie_setup + CostModel::pcie_transfer_cycles(bytes);
  Cycles t = out.start;
  if (plan != nullptr) {
    const FaultPlan::PcieDecision decision = plan->next_pcie();
    out.failures = decision.failures;
    out.gave_up = decision.sticky;
    for (unsigned attempt = 1; attempt <= out.failures; ++attempt) {
      t += out.attempt_cost;  // the failed attempt still occupied the channel
      // After the final sticky failure the initiator gives up on retrying
      // and resets the link; otherwise it backs off exponentially and
      // replays.
      t += (out.gave_up && attempt == out.failures)
               ? FaultPlanConfig::kLinkResetCycles
               : FaultPlanConfig::backoff(attempt);
      bytes_[d] += bytes;  // junk bytes of the failed attempt
    }
  }
  t += out.attempt_cost;  // the attempt that lands
  bytes_[d] += bytes;
  ++transfers_[d];
  busy_until_[d] = t;
  out.done = t;
  out.recovery = out.done - (out.start + out.attempt_cost);
  return out;
}

}  // namespace cmcp::sim
