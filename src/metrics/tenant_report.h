// Multi-tenant reporting: turn a core::MultiTenantResult into ResultWriter
// rows (one per tenant) plus run-level fairness metadata.
//
// Columns per tenant: identity (asid, workload, policy, core placement),
// capacity accounting (footprint / partition target / frames held at end),
// fault behaviour (accesses, major/minor faults,
// fault rate per million accesses, evictions), shootdown interference
// (initiated, remote invalidations received, and one `invals_from_<j>`
// column per tenant j giving the remote TLB entries j's shootdowns
// invalidated on this tenant's cores), and timing (makespan, progress
// rate = accesses per kilocycle).
//
// Run-level meta: shared capacity, partition kind, overall makespan, and
// the Jain fairness index over per-tenant progress rates
// (J = (Σx)² / (n·Σx²); 1.0 = perfectly fair, 1/n = one tenant starved).
#pragma once

#include <vector>

#include "metrics/result_writer.h"

namespace cmcp::core {
struct MultiTenantResult;
}  // namespace cmcp::core

namespace cmcp::metrics {

/// Jain's fairness index over `xs` (each x >= 0). Returns 1.0 for empty or
/// all-zero input (nothing to be unfair about).
double jain_fairness(const std::vector<double>& xs);

/// Append one row per tenant (plus run meta) to `out`.
void write_tenant_report(const core::MultiTenantResult& result,
                         ResultWriter& out);

}  // namespace cmcp::metrics
