#include "sim/interconnect.h"

#include <algorithm>

namespace cmcp::sim {

ShootdownTiming Interconnect::shootdown(Cycles now, unsigned num_targets,
                                        unsigned num_units) {
  ShootdownTiming t;
  if (num_targets == 0) return t;

  // Serialize on the shared invalidation-request slot.
  const Cycles acquired = std::max(now, slot_busy_until_);
  t.lock_wait = acquired - now;

  t.initiate = cost_->ipi_initiate + cost_->ipi_per_target * num_targets;
  // Receivers handle their IPIs in parallel; the initiator waits for the
  // slowest acknowledgment, which is one receiver's handling time.
  t.receiver_cost = cost_->ipi_receive + cost_->invlpg * num_units;
  t.ack_wait = t.receiver_cost;

  // The slot is held while the request structures are set up and the IPI
  // send loop runs; acks from different shootdowns overlap. The hold grows
  // with the target count, so address-space-wide shootdowns (regular page
  // tables) convoy far more than PSPT's narrow ones — the effect behind the
  // IPI loop "becoming extremely expensive when frequent page faults occur
  // simultaneously on a large number of CPU cores" (paper section 2.3).
  slot_busy_until_ = acquired + cost_->inval_slot_hold + t.initiate;
  return t;
}

}  // namespace cmcp::sim
