#include "workloads/synthetic.h"

namespace cmcp::wl {

namespace {

/// Phase 0: every core reads the whole shared region once — every page ends
/// up with a maximal core-map count and is then never used again. Phases
/// 1..rounds: hot private working sets, repeatedly.
class AdversarialPlan final : public PhasePlan {
 public:
  explicit AdversarialPlan(const AdversarialParams& params) : params_(params) {}

  std::uint32_t phases() const override { return 1 + params_.rounds; }
  std::uint64_t footprint_base_pages() const override {
    return params_.dead_shared_pages +
           static_cast<std::uint64_t>(params_.base.cores) *
               params_.private_pages_per_core;
  }
  void emit(std::uint32_t phase, CoreId c, std::vector<Op>& out) const override {
    ScheduleBuilder sb(/*compute_per_page=*/0, out);
    const Vpn shared_base = 0;
    const Vpn private_base = params_.dead_shared_pages;
    if (phase == 0) {
      sb.touch(shared_base, params_.dead_shared_pages, /*write=*/false, 1);
      return;
    }
    const Vpn base =
        private_base + static_cast<Vpn>(c) * params_.private_pages_per_core;
    sb.touch(base, params_.private_pages_per_core, /*write=*/true,
             AdversarialWorkload::kPrivateRepeat);
  }

 private:
  AdversarialParams params_;
};

}  // namespace

AdversarialWorkload::AdversarialWorkload(const AdversarialParams& params)
    : params_(params), plan_(std::make_shared<const AdversarialPlan>(params)) {}

std::unique_ptr<AccessStream> AdversarialWorkload::make_stream(CoreId core) const {
  CMCP_CHECK(core < params_.base.cores);
  return std::make_unique<PhaseStream>(plan_, core);
}

}  // namespace cmcp::wl
