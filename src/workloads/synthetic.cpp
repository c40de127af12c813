#include "workloads/synthetic.h"

namespace cmcp::wl {

AdversarialWorkload::AdversarialWorkload(const AdversarialParams& params)
    : params_(params) {
  const CoreId n = params_.base.cores;
  ScheduleBuilder sb(n, /*compute_per_page=*/0);
  const Vpn shared_base = 0;
  const Vpn private_base = params_.dead_shared_pages;

  // Phase 1: every core reads the whole shared region once — every page
  // ends up with a maximal core-map count and is then never used again.
  for (CoreId c = 0; c < n; ++c)
    sb.touch(c, shared_base, params_.dead_shared_pages, /*write=*/false, 1);
  sb.barrier_all();

  // Phase 2: hot private working sets, repeatedly.
  for (std::uint32_t round = 0; round < params_.rounds; ++round) {
    for (CoreId c = 0; c < n; ++c) {
      const Vpn base =
          private_base + static_cast<Vpn>(c) * params_.private_pages_per_core;
      sb.touch(c, base, params_.private_pages_per_core, /*write=*/true,
               kPrivateRepeat);
    }
    sb.barrier_all();
  }
  schedules_ = sb.finish();
}

std::unique_ptr<AccessStream> AdversarialWorkload::make_stream(CoreId core) const {
  CMCP_CHECK(core < schedules_.size());
  return std::make_unique<VectorStream>(schedules_[core]);
}

}  // namespace cmcp::wl
