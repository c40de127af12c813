// Core-Map Count based Priority replacement (CMCP) — the paper's
// contribution (section 3, Fig. 4).
//
// Resident pages are split into two groups:
//   * a regular FIFO list, and
//   * a priority group holding at most p * capacity pages, ordered by the
//     number of CPU cores mapping each page (auxiliary knowledge that only
//     PSPT can provide).
// When a unit becomes resident (or gains a mapping core), CMCP consults the
// core-map count and tries to place it in the priority group, displacing the
// lowest-priority member if the group is full and the newcomer maps more
// cores. A simple aging mechanism slowly demotes stale prioritized pages back
// to FIFO so dead shared pages cannot monopolize the group. Eviction takes
// the FIFO head, or — only when FIFO is empty — the lowest-priority page.
//
// The decisive property: no operation here reads or clears accessed bits, so
// CMCP incurs zero remote TLB invalidations for usage tracking.
#pragma once

#include <vector>

#include "common/intrusive_list.h"
#include "policy/replacement_policy.h"

namespace cmcp::policy {

struct CmcpConfig {
  /// Ratio of prioritized pages, 0 <= p <= 1. p -> 0 degenerates to FIFO;
  /// p -> 1 orders (almost) everything by core-map count (paper section 3).
  double p = 0.3;
  /// A prioritized page not refreshed (no new mapping core) within this many
  /// ticks falls back to FIFO. Ticks arrive at scanner cadence (~10 ms).
  std::uint32_t age_limit_ticks = 24;
  /// Disable aging entirely (ablation A1).
  bool aging_enabled = true;
};

class CmcpPolicy final : public ReplacementPolicy {
 public:
  CmcpPolicy(PolicyHost& host, const CmcpConfig& config);

  std::string_view name() const override { return "CMCP"; }

  void on_insert(mm::ResidentPage& page) override;
  void on_core_map_grow(mm::ResidentPage& page) override;
  mm::ResidentPage* pick_victim(CoreId faulting_core, Cycles& extra_cycles) override;
  void on_evict(mm::ResidentPage& page) override;
  void on_tick(Cycles now) override;

  /// Adjust p at runtime (dynamic-p controller). Does not retroactively
  /// demote; the group shrinks naturally through aging and displacement.
  void set_p(double p);
  double p() const { return config_.p; }

  std::int64_t tracked_pages() const override {
    return static_cast<std::int64_t>(fifo_.size() + priority_size_);
  }

  std::size_t fifo_size() const { return fifo_.size(); }
  std::size_t priority_size() const { return priority_size_; }
  std::uint64_t max_priority_pages() const { return max_priority_; }
  void stats(const StatVisitor& visit) const override;

 private:
  static constexpr std::uint8_t kFifo = 0;
  static constexpr std::uint8_t kPriority = 1;

  using PageList = IntrusiveList<mm::ResidentPage, &mm::ResidentPage::main_node>;
  using AgeList = IntrusiveList<mm::ResidentPage, &mm::ResidentPage::aux_node>;

  unsigned bucket_of(unsigned core_map_count) const;
  mm::ResidentPage* lowest_priority_page();
  void promote(mm::ResidentPage& page);
  void demote_to_fifo(mm::ResidentPage& page);
  /// Place a page per the insertion rule; page must not be on any list.
  void place(mm::ResidentPage& page);

  PolicyHost& host_;
  CmcpConfig config_;
  std::uint64_t max_priority_ = 0;

  PageList fifo_;
  /// buckets_[c] holds prioritized pages mapped by c cores (FIFO inside a
  /// bucket). Index 0 unused; capped at num_cores.
  std::vector<PageList> buckets_;
  std::size_t priority_size_ = 0;
  unsigned lowest_bucket_hint_ = 1;

  /// Prioritized pages in refresh order (front == stalest) for aging.
  AgeList age_list_;
  std::uint64_t tick_count_ = 0;

  std::uint64_t promotions_ = 0;
  std::uint64_t displacements_ = 0;
  std::uint64_t aged_out_ = 0;
};

}  // namespace cmcp::policy
