// Uniform-random eviction — extension baseline. Statistically unbiased, no
// usage tracking, no shootdown overhead; a useful lower bound on how much of
// CMCP's win comes from the priority signal versus merely avoiding scans.
#pragma once

#include <vector>

#include "common/rng.h"
#include "policy/replacement_policy.h"

namespace cmcp::policy {

class RandomPolicy final : public ReplacementPolicy {
 public:
  /// The seed make_policy builds every RANDOM policy with, so a run
  /// replays bit-identically.
  static constexpr std::uint64_t kSeed = 0x5eedULL;

  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}

  std::string_view name() const override { return "RANDOM"; }

  void on_insert(mm::ResidentPage& page) override {
    page.slot = static_cast<std::uint32_t>(pages_.size());
    pages_.push_back(&page);
  }

  mm::ResidentPage* pick_victim(CoreId /*faulting_core*/,
                                Cycles& /*extra_cycles*/) override {
    if (pages_.empty()) return nullptr;
    return pages_[rng_.next_below(pages_.size())];
  }

  void on_evict(mm::ResidentPage& page) override {
    // Swap-remove to keep O(1).
    const std::uint32_t s = page.slot;
    pages_[s] = pages_.back();
    pages_[s]->slot = s;
    pages_.pop_back();
  }

  std::int64_t tracked_pages() const override {
    return static_cast<std::int64_t>(pages_.size());
  }

 private:
  Rng rng_;
  std::vector<mm::ResidentPage*> pages_;
};

}  // namespace cmcp::policy
