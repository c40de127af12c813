// LFU approximation — extension baseline. Frequency is sampled from the
// accessed bit by the periodic scanner (one observation per scan), so like
// LRU it pays shootdowns for every sample (paper section 3 names LFU as
// equally afflicted).
#pragma once

#include <vector>

#include "common/intrusive_list.h"
#include "policy/replacement_policy.h"

namespace cmcp::policy {

class LfuPolicy final : public ReplacementPolicy {
 public:
  LfuPolicy() : buckets_(kMaxFreq + 1) {}

  std::string_view name() const override { return "LFU"; }
  bool wants_scanner() const override { return true; }

  void on_insert(mm::ResidentPage& page) override {
    page.bucket = 0;
    buckets_[0].push_back(page);
    ++size_;
  }

  void on_scan(mm::ResidentPage& page, bool referenced) override {
    if (!referenced || page.bucket >= kMaxFreq) return;
    buckets_[page.bucket].erase(page);
    ++page.bucket;
    buckets_[page.bucket].push_back(page);
  }

  mm::ResidentPage* pick_victim(CoreId /*faulting_core*/,
                                Cycles& /*extra_cycles*/) override {
    for (auto& bucket : buckets_) {
      if (mm::ResidentPage* p = bucket.front(); p != nullptr) return p;
    }
    return nullptr;
  }

  void on_evict(mm::ResidentPage& page) override {
    buckets_[page.bucket].erase(page);
    --size_;
  }

  std::int64_t tracked_pages() const override {
    return static_cast<std::int64_t>(size_);
  }

 private:
  static constexpr std::uint32_t kMaxFreq = 255;

  std::vector<IntrusiveList<mm::ResidentPage, &mm::ResidentPage::main_node>> buckets_;
  std::size_t size_ = 0;
};

}  // namespace cmcp::policy
