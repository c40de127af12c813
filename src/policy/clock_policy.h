// CLOCK (second chance) — extension baseline. The paper argues (section 3)
// that CLOCK suffers the same disease as LRU because it too relies on
// accessed bits; here the sampling happens inline at eviction time, and each
// cleared bit still costs a shootdown of every mapping core.
#pragma once

#include "common/intrusive_list.h"
#include "policy/replacement_policy.h"

namespace cmcp::policy {

class ClockPolicy : public ReplacementPolicy {
 public:
  explicit ClockPolicy(PolicyHost& host) : host_(host) {}

  std::string_view name() const override { return "CLOCK"; }

  void on_insert(mm::ResidentPage& page) override { ring_.push_back(page); }

  mm::ResidentPage* pick_victim(CoreId faulting_core, Cycles& extra_cycles) override;

  void on_evict(mm::ResidentPage& page) override { ring_.erase(page); }

  std::int64_t tracked_pages() const override {
    return static_cast<std::int64_t>(ring_.size());
  }

  void stats(const StatVisitor& visit) const override {
    visit("second_chances", second_chances_);
  }

 private:
  /// Max second chances granted per reclaim (bounds shootdown work).
  static constexpr std::size_t kMaxSweep = 8;

  PolicyHost& host_;
  IntrusiveList<mm::ResidentPage, &mm::ResidentPage::main_node> ring_;
  std::uint64_t second_chances_ = 0;
};

}  // namespace cmcp::policy
