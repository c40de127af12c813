#include "workloads/multi_tenant.h"

#include "common/assert.h"

namespace cmcp::wl {

namespace {

/// 2 MB units are 512 base pages; aligning every tenant's base to that keeps
/// all page-size classes valid regardless of the machine configuration.
constexpr Vpn kAreaAlign = 512;

Vpn align_up(Vpn v) { return (v + kAreaAlign - 1) & ~(kAreaAlign - 1); }

}  // namespace

Asid MultiTenantSpec::add(std::unique_ptr<Workload> workload) {
  CMCP_CHECK(workload != nullptr);
  CMCP_CHECK(workload->num_cores() > 0);
  tenants_.push_back(std::move(workload));
  return static_cast<Asid>(tenants_.size() - 1);
}

TenantPlacement MultiTenantSpec::placement(Asid asid) const {
  CMCP_CHECK(asid < tenants_.size());
  TenantPlacement p;
  Vpn base = 0;
  for (Asid i = 0; i <= asid; ++i) {
    p.first_core += i == 0 ? 0 : tenants_[i - 1]->num_cores();
    p.area_base_vpn = base;
    base = align_up(base + tenants_[i]->footprint_base_pages());
  }
  p.num_cores = tenants_[asid]->num_cores();
  p.footprint_base_pages = tenants_[asid]->footprint_base_pages();
  return p;
}

}  // namespace cmcp::wl
