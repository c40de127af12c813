// CMCP with runtime adaptation of p — the paper's stated future work
// (section 5.6: "determining the optimal value dynamically based on runtime
// performance feedback (such as page fault frequency)").
//
// A hill-climbing controller: every adaptation window it compares the
// eviction rate (== capacity-miss fault rate) against the previous window
// and keeps moving p in the direction that reduced it, reversing otherwise.
#pragma once

#include "policy/cmcp.h"

namespace cmcp::policy {

class DynamicPCmcpPolicy final : public ReplacementPolicy {
 public:
  static constexpr double kStep = 0.1;  ///< p adjustment per window
  /// Ticks (scanner cadence) per adaptation window.
  static constexpr std::uint32_t kWindowTicks = 4;
  static constexpr double kMinP = 0.0;  ///< p is clamped to [kMinP, kMaxP]
  static constexpr double kMaxP = 1.0;

  /// The controller starts at p = `start_p`; aging keeps CmcpConfig's
  /// defaults.
  DynamicPCmcpPolicy(PolicyHost& host, double start_p)
      : inner_(host, CmcpConfig{.p = start_p}) {}

  std::string_view name() const override { return "CMCP-dyn"; }

  void on_insert(mm::ResidentPage& page) override { inner_.on_insert(page); }
  void on_core_map_grow(mm::ResidentPage& page) override {
    inner_.on_core_map_grow(page);
  }

  mm::ResidentPage* pick_victim(CoreId faulting_core, Cycles& extra_cycles) override {
    ++window_evictions_;
    return inner_.pick_victim(faulting_core, extra_cycles);
  }

  void on_evict(mm::ResidentPage& page) override { inner_.on_evict(page); }

  std::int64_t tracked_pages() const override { return inner_.tracked_pages(); }

  void on_tick(Cycles now) override;

  double current_p() const { return inner_.p(); }
  void stats(const StatVisitor& visit) const override {
    // Inner CMCP stats first so the controller's own names win on clashes.
    inner_.stats(visit);
    visit("adaptations", adaptations_);
    visit("p_permille", static_cast<std::uint64_t>(inner_.p() * 1000.0));
  }

 private:
  CmcpPolicy inner_;
  std::uint32_t ticks_in_window_ = 0;
  std::uint64_t window_evictions_ = 0;
  std::uint64_t prev_window_evictions_ = 0;
  double direction_ = +1.0;
  bool have_baseline_ = false;
  std::uint64_t adaptations_ = 0;
};

}  // namespace cmcp::policy
