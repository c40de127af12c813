// FIFO replacement — the paper's baseline. No usage statistics, hence no
// extra shootdowns; victims are evicted in residency order.
#pragma once

#include "common/intrusive_list.h"
#include "policy/replacement_policy.h"

namespace cmcp::policy {

// Not `final`: FIFO is the natural base for decorators and counting
// wrappers (see tests and examples).
class FifoPolicy : public ReplacementPolicy {
 public:
  std::string_view name() const override { return "FIFO"; }

  void on_insert(mm::ResidentPage& page) override { queue_.push_back(page); }

  mm::ResidentPage* pick_victim(CoreId /*faulting_core*/,
                                Cycles& /*extra_cycles*/) override {
    return queue_.front();
  }

  void on_evict(mm::ResidentPage& page) override { queue_.erase(page); }

  std::int64_t tracked_pages() const override {
    return static_cast<std::int64_t>(queue_.size());
  }

  std::size_t queued() const { return queue_.size(); }

 private:
  IntrusiveList<mm::ResidentPage, &mm::ResidentPage::main_node> queue_;
};

}  // namespace cmcp::policy
