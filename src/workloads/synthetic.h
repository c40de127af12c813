// The adversarial synthetic workload of ablation A4: the paper concedes in
// section 3 that access patterns exist for which the core-map-count
// heuristic misfires, and this one constructs such a pattern.
#pragma once

#include "workloads/schedule_builder.h"

namespace cmcp::wl {

/// Adversarial anti-CMCP pattern: a widely shared region is touched by every
/// core exactly once up front (inflating its core-map count) and never
/// again, while private regions stay hot. CMCP pins the dead shared pages;
/// only aging rescues it.
struct AdversarialParams {
  WorkloadParams base;
  std::uint64_t dead_shared_pages = 2048;
  std::uint64_t private_pages_per_core = 256;
  std::uint32_t rounds = 20;
};

class AdversarialWorkload final : public Workload {
 public:
  /// Visits of each private page per round.
  static constexpr std::uint16_t kPrivateRepeat = 3;

  explicit AdversarialWorkload(const AdversarialParams& params);

  std::string_view name() const override { return "adversarial"; }
  CoreId num_cores() const override { return params_.base.cores; }
  std::uint64_t footprint_base_pages() const override {
    return plan_->footprint_base_pages();
  }
  std::unique_ptr<AccessStream> make_stream(CoreId core) const override;

 private:
  AdversarialParams params_;
  std::shared_ptr<const PhasePlan> plan_;
};

}  // namespace cmcp::wl
