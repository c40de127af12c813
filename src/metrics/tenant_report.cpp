#include "metrics/tenant_report.h"

#include <string>

#include "core/multi_tenant.h"

namespace cmcp::metrics {

double jain_fairness(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  const auto n = static_cast<double>(xs.size());
  return (sum * sum) / (n * sum_sq);
}

void write_tenant_report(const core::MultiTenantResult& result,
                         ResultWriter& out) {
  const std::size_t n = result.tenants.size();
  std::vector<double> progress_rates;
  progress_rates.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    const core::TenantResult& tr = result.tenants[t];
    ResultWriter::Row& row = out.add_row();
    row.set("asid", static_cast<std::uint64_t>(t))
        .set("workload", tr.workload_name)
        .set("policy", tr.policy_name)
        .set("first_core", static_cast<std::uint64_t>(tr.first_core))
        .set("num_cores", static_cast<std::uint64_t>(tr.num_cores))
        .set("footprint_units", tr.footprint_units)
        .set("capacity_target_units", tr.capacity_target_units)
        .set("resident_units_end", tr.resident_units_end)
        .set("accesses", tr.total.accesses)
        .set("major_faults", tr.total.major_faults)
        .set("minor_faults", tr.total.minor_faults)
        .set("evictions", tr.total.evictions + tr.scanner.evictions)
        .set("writebacks", tr.total.writebacks + tr.scanner.writebacks)
        .set("shootdowns_initiated",
             tr.total.shootdowns_initiated + tr.scanner.shootdowns_initiated)
        .set("remote_invals_received", tr.total.remote_invalidations_received)
        .set("scans", tr.scans)
        .set("makespan", static_cast<std::uint64_t>(tr.makespan));

    // Fault rate per million accesses (Table 1's normalization).
    const double accesses = static_cast<double>(tr.total.accesses);
    row.set("major_faults_per_maccess",
            accesses > 0.0
                ? static_cast<double>(tr.total.major_faults) * 1e6 / accesses
                : 0.0);
    row.set("minor_faults_per_maccess",
            accesses > 0.0
                ? static_cast<double>(tr.total.minor_faults) * 1e6 / accesses
                : 0.0);

    // Interference matrix row for this tenant as RECEIVER: how many of its
    // TLB entries each tenant's shootdowns invalidated remotely.
    for (std::size_t cause = 0; cause < n; ++cause)
      row.set("invals_from_" + std::to_string(cause),
              result.interference[cause * n + t]);

    const double rate =
        tr.makespan > 0 ? accesses * 1e3 / static_cast<double>(tr.makespan)
                        : 0.0;
    row.set("progress_rate_kcyc", rate);
    progress_rates.push_back(rate);
  }

  out.meta("partition", result.partition_kind);
  out.meta("shared_capacity_units",
           std::to_string(result.shared_capacity_units));
  out.meta("num_tenants", std::to_string(n));
  out.meta("makespan", std::to_string(result.makespan));
  out.meta("jain_fairness_progress",
           std::to_string(jain_fairness(progress_rates)));
}

}  // namespace cmcp::metrics
