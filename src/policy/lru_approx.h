// Linux-style LRU approximation (paper section 5.1): two queues, active and
// inactive. Pages transit between them based on the accessed bit observed by
// the periodic scanner — which is exactly what makes this policy expensive on
// a many-core: every sampled bit costs a remote TLB shootdown.
#pragma once

#include "common/intrusive_list.h"
#include "policy/replacement_policy.h"

namespace cmcp::policy {

class LruApproxPolicy final : public ReplacementPolicy {
 public:
  std::string_view name() const override { return "LRU"; }

  bool wants_scanner() const override { return true; }

  void on_insert(mm::ResidentPage& page) override {
    page.where = kInactive;
    inactive_.push_back(page);
  }

  void on_scan(mm::ResidentPage& page, bool referenced) override;

  mm::ResidentPage* pick_victim(CoreId faulting_core, Cycles& extra_cycles) override;

  void on_evict(mm::ResidentPage& page) override;

  std::int64_t tracked_pages() const override {
    return static_cast<std::int64_t>(active_.size() + inactive_.size());
  }

  std::size_t active_size() const { return active_.size(); }
  std::size_t inactive_size() const { return inactive_.size(); }
  void stats(const StatVisitor& visit) const override;

 private:
  static constexpr std::uint8_t kInactive = 0;
  static constexpr std::uint8_t kActive = 1;

  IntrusiveList<mm::ResidentPage, &mm::ResidentPage::main_node> inactive_;
  IntrusiveList<mm::ResidentPage, &mm::ResidentPage::main_node> active_;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace cmcp::policy
