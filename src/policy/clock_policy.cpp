#include "policy/clock_policy.h"

#include <algorithm>

namespace cmcp::policy {

mm::ResidentPage* ClockPolicy::pick_victim(CoreId faulting_core,
                                           Cycles& extra_cycles) {
  // Sweep the hand: referenced pages get a second chance (bit cleared — at
  // shootdown cost — and rotated to the tail). The sweep is bounded per
  // reclaim, as in real kernels: under thrash nearly every page is
  // referenced and an unbounded sweep would shoot down the whole resident
  // set on every eviction.
  const std::size_t limit = std::min<std::size_t>(ring_.size(), kMaxSweep) + 1;
  // The probe timestamp starts at the eviction's start, not the core's clock
  // from before the fault, and advances with each cleared page: every
  // shootdown in the sweep happens after the previous one finished (a stale
  // timestamp counts each slot wait twice, compounding into runaway virtual
  // time).
  Cycles now = host_.eviction_start() + extra_cycles;
  for (std::size_t i = 0; i < limit; ++i) {
    mm::ResidentPage* hand = ring_.front();
    if (hand == nullptr) return nullptr;
    if (!host_.unit_accessed(*hand)) return hand;
    const Cycles spent =
        host_.clear_accessed_and_shootdown(*hand, faulting_core, now);
    extra_cycles += spent;
    now += spent;
    ring_.move_to_back(*hand);
    ++second_chances_;
  }
  return ring_.front();
}

}  // namespace cmcp::policy
