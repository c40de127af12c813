// IPI-based remote TLB shootdown timing.
//
// x86 has no remote TLB invalidation instruction: the initiator loops over
// target cores sending IPIs and spins until every receiver acknowledges.
// Kernel shootdown request structures are protected by a lock; concurrent
// shootdowns serialize on it. The paper measured up to 8x growth in cycles
// spent in this synchronization under LRU scanning (section 5.5) — the
// invalidation slot below reproduces that effect.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/cost_model.h"

namespace cmcp::sim {

/// Timing outcome of one shootdown, from the initiator's perspective.
struct ShootdownTiming {
  Cycles lock_wait = 0;      ///< waited for the invalidation-request slot
  Cycles initiate = 0;       ///< IPI send loop at the initiator
  Cycles ack_wait = 0;       ///< waiting for the slowest receiver's ack
  Cycles receiver_cost = 0;  ///< cost charged to EACH receiver

  Cycles initiator_total() const { return lock_wait + initiate + ack_wait; }
};

class Interconnect {
 public:
  explicit Interconnect(const CostModel& cost) : cost_(&cost) {}

  /// Compute the timing of a shootdown of `num_units` translations sent to
  /// `num_targets` cores, initiated at time `now`. Advances the shared
  /// invalidation slot. num_targets may be 0 (PSPT often finds no other
  /// mapping core): no IPI is sent and only local work remains.
  ShootdownTiming shootdown(Cycles now, unsigned num_targets, unsigned num_units);

  Cycles slot_busy_until() const { return slot_busy_until_; }

 private:
  const CostModel* cost_;
  Cycles slot_busy_until_ = 0;
};

}  // namespace cmcp::sim
