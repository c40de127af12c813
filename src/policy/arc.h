// ARC-f: an Adaptive Replacement Cache variant driven purely by
// fault-visible events — extension baseline.
//
// Classic ARC (Megiddo & Modha, FAST'03) balances a recency list T1 and a
// frequency list T2 using ghost lists B1/B2 of recently evicted pages: a
// refault that hits a ghost shifts the adaptation target toward the list
// that would have kept it. On a many-core with expensive access-bit
// sampling, ARC is interesting for the same reason CMCP is: its signals
// (faults and refaults) are free. The one adaptation: classic ARC promotes
// T1->T2 on cache *hits*, which the OS cannot see without scanning; ARC-f
// promotes on PSPT minor faults instead (a new core mapping the page — the
// same auxiliary signal CMCP uses).
#pragma once

#include <cstddef>
#include <vector>

#include "common/intrusive_list.h"
#include "policy/replacement_policy.h"

namespace cmcp::policy {

class ArcPolicy final : public ReplacementPolicy {
 public:
  explicit ArcPolicy(PolicyHost& host);

  std::string_view name() const override { return "ARC-f"; }

  void on_insert(mm::ResidentPage& page) override;
  void on_core_map_grow(mm::ResidentPage& page) override;
  mm::ResidentPage* pick_victim(CoreId faulting_core, Cycles& extra_cycles) override;
  void on_evict(mm::ResidentPage& page) override;

  std::int64_t tracked_pages() const override {
    return static_cast<std::int64_t>(t1_.size() + t2_.size());
  }

  std::size_t t1_size() const { return t1_.size(); }
  std::size_t t2_size() const { return t2_.size(); }
  std::size_t b1_size() const { return b1_.size(); }
  std::size_t b2_size() const { return b2_.size(); }
  double target() const { return target_; }
  void stats(const StatVisitor& visit) const override;

 private:
  static constexpr std::uint8_t kT1 = 0;
  static constexpr std::uint8_t kT2 = 1;

  /// Ghost list: bounded FIFO of evicted unit ids with O(1) membership.
  /// Dense unit-indexed links (docs/performance.md), not a hash map: one
  /// lazily-grown node array doubles as membership bit and FIFO position,
  /// so push/remove/contains are pointer-free index chasing with a defined
  /// iteration order — the same layout discipline as the page tables.
  class GhostList {
   public:
    bool contains(UnitIdx unit) const {
      return unit < nodes_.size() && nodes_[unit].linked;
    }
    void push(UnitIdx unit, std::size_t cap);
    void remove(UnitIdx unit);
    std::size_t size() const { return size_; }

   private:
    struct Node {
      UnitIdx prev = kInvalidUnit;
      UnitIdx next = kInvalidUnit;
      bool linked = false;
    };

    std::vector<Node> nodes_;  ///< indexed by unit, grown on first sight
    UnitIdx head_ = kInvalidUnit;  ///< oldest
    UnitIdx tail_ = kInvalidUnit;  ///< newest
    std::size_t size_ = 0;
  };

  using PageList = IntrusiveList<mm::ResidentPage, &mm::ResidentPage::main_node>;

  PolicyHost& host_;
  PageList t1_;  ///< seen once recently (front = LRU)
  PageList t2_;  ///< seen multiple times (front = LRU)
  GhostList b1_;
  GhostList b2_;
  double target_ = 0.0;  ///< desired size of T1 ("p" in the ARC paper)

  std::uint64_t ghost_hits_b1_ = 0;
  std::uint64_t ghost_hits_b2_ = 0;
  std::uint64_t promotions_ = 0;
};

}  // namespace cmcp::policy
