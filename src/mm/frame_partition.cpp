#include "mm/frame_partition.h"

#include <limits>

#include "common/assert.h"

namespace cmcp::mm {

FramePartition::FramePartition(PartitionKind kind, std::uint64_t capacity,
                               Asid num_tenants)
    : kind_(kind), capacity_(capacity), num_tenants_(num_tenants) {
  CMCP_CHECK(capacity_ > 0);
  CMCP_CHECK(num_tenants_ > 0);
}

void FramePartition::set_capacity(std::uint64_t capacity) {
  CMCP_CHECK(capacity > 0);
  capacity_ = capacity;
}

Asid FramePartition::choose_victim_space(Asid asid,
                                         const FrameAllocator& alloc) const {
  if (kind_ == PartitionKind::kNone || num_tenants_ <= 1) return asid;

  // Proportional share: priority-evict the noisiest neighbor — the tenant
  // furthest over its target. Prefer the faulting tenant on ties so a tenant
  // at target churns its own pages instead of a neighbor's.
  Asid best = asid;
  std::int64_t best_over = std::numeric_limits<std::int64_t>::min();
  if (alloc.in_use_by(asid) > 0) {
    best_over = static_cast<std::int64_t>(alloc.in_use_by(asid)) -
                static_cast<std::int64_t>(target_of(asid));
  }
  for (Asid j = 0; j < num_tenants_; ++j) {
    if (j == asid || alloc.in_use_by(j) == 0) continue;
    const std::int64_t over = static_cast<std::int64_t>(alloc.in_use_by(j)) -
                              static_cast<std::int64_t>(target_of(j));
    if (over > best_over) {
      best = j;
      best_over = over;
    }
  }
  return best;
}

}  // namespace cmcp::mm
