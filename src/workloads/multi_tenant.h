// Multi-tenant workload composition: stack existing workloads side by side
// on one machine, each tenant getting a contiguous block of cores and a
// disjoint, unit-aligned slice of the virtual address range. The composition
// is pure bookkeeping — tenants' access streams are exactly the underlying
// workloads' streams; only the core ids and area bases shift.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "workloads/access_stream.h"

namespace cmcp::wl {

/// Where one tenant landed in the composed machine: its core block and its
/// computation-area slice (2 MB-aligned base so every unit size fits).
struct TenantPlacement {
  CoreId first_core = 0;
  CoreId num_cores = 0;
  Vpn area_base_vpn = 0;
  std::uint64_t footprint_base_pages = 0;
};

/// An ordered set of tenant workloads. Tenant i (== asid i) owns cores
/// [placement(i).first_core, +num_cores) and the virtual range starting at
/// placement(i).area_base_vpn. Placements are deterministic functions of the
/// add() order.
class MultiTenantSpec {
 public:
  /// Append a tenant; returns its asid.
  Asid add(std::unique_ptr<Workload> workload);

  std::size_t num_tenants() const { return tenants_.size(); }
  const Workload& tenant(Asid asid) const { return *tenants_[asid]; }

  TenantPlacement placement(Asid asid) const;

 private:
  std::vector<std::unique_ptr<Workload>> tenants_;
};

}  // namespace cmcp::wl
