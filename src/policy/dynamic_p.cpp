#include "policy/dynamic_p.h"

#include <algorithm>

namespace cmcp::policy {

void DynamicPCmcpPolicy::on_tick(Cycles now) {
  inner_.on_tick(now);
  if (++ticks_in_window_ < kWindowTicks) return;
  ticks_in_window_ = 0;

  if (!have_baseline_) {
    // First complete window: just record and take an exploratory step.
    have_baseline_ = true;
  } else if (window_evictions_ > prev_window_evictions_) {
    // The last move made things worse; reverse course.
    direction_ = -direction_;
  }
  prev_window_evictions_ = window_evictions_;
  window_evictions_ = 0;

  const double next_p =
      std::clamp(inner_.p() + direction_ * kStep, kMinP, kMaxP);
  if (next_p != inner_.p()) {
    inner_.set_p(next_p);
    ++adaptations_;
  } else {
    // Pinned at a bound; probe back toward the interior next window.
    direction_ = -direction_;
  }
}

}  // namespace cmcp::policy
