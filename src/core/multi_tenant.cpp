#include "core/multi_tenant.h"

#include "core/simulation.h"

namespace cmcp::core {

MultiTenantResult run_multi_tenant(const MultiTenantConfig& config,
                                   const wl::MultiTenantSpec& spec,
                                   const std::vector<TenantRunConfig>& tenant_configs) {
  Simulation sim(config, spec, tenant_configs);
  return sim.run_tenants();
}

}  // namespace cmcp::core
