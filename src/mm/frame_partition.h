// Frame partitioning for multi-tenant runs.
//
// When several address spaces contend for one FrameAllocator, any tenant
// may take a free frame (allocation is work-conserving), and on a capacity
// miss the coordinator asks this policy which address space must evict one
// of its own resident units (choose_victim_space).
//
// PartitionKind::kNone reduces exactly to the pre-refactor single-tenant
// behavior: allocate while frames remain, evict from yourself when full.
// All tie-breaks are deterministic (lowest asid) so multi-tenant runs stay
// bit-reproducible.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "mm/frame_allocator.h"

namespace cmcp::mm {

enum class PartitionKind : std::uint8_t {
  kNone,              ///< free-for-all; each tenant evicts from itself
  kProportionalShare, ///< equal targets; evict the noisiest neighbor
};

constexpr std::string_view to_string(PartitionKind k) {
  switch (k) {
    case PartitionKind::kNone: return "none";
    case PartitionKind::kProportionalShare: return "proportional-share";
  }
  return "?";
}

class FramePartition {
 public:
  /// `num_tenants` address spaces (asids 0..num_tenants-1) share `capacity`
  /// frames.
  FramePartition(PartitionKind kind, std::uint64_t capacity, Asid num_tenants);

  PartitionKind kind() const { return kind_; }
  std::uint64_t capacity() const { return capacity_; }

  /// Re-apportion the targets against a changed capacity — the degradation
  /// path when quarantined frames shrink the allocator's usable pool
  /// mid-run, so tenants shrink instead of crashing.
  void set_capacity(std::uint64_t capacity);

  /// Equal-share target for `asid`: capacity / n frames, and the lowest
  /// capacity % n asids one more, so the targets sum to the capacity. A
  /// single tenant's target is the whole capacity.
  std::uint64_t target_of(Asid asid) const {
    return capacity_ / num_tenants_ + (asid < capacity_ % num_tenants_ ? 1 : 0);
  }

  /// Which address space must evict so `asid` can make progress. Always
  /// returns a space with at least one resident frame; returns `asid` itself
  /// under kNone and whenever no better-loaded neighbor exists.
  Asid choose_victim_space(Asid asid, const FrameAllocator& alloc) const;

 private:
  PartitionKind kind_;
  std::uint64_t capacity_;
  Asid num_tenants_;
};

}  // namespace cmcp::mm
