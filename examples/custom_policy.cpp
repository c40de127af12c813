// Example: implementing your own replacement policy against the public
// policy interface and running it inside the full simulation via
// SimulationConfig::custom_policy.
//
// The policy below ("CMCP-W") is a variant of CMCP that orders victims by a
// weight combining core-map count and write activity: dirty shared pages
// are the most expensive to evict (wide shootdown + write-back), so they
// are kept longest. It shows everything a downstream policy needs —
// residency callbacks, victim selection, and how to plug into the engine.
//
//   $ ./custom_policy
#include <cstdio>
#include <vector>

#include "cmcp.h"
#include "common/intrusive_list.h"

namespace {

using namespace cmcp;

class WeightedCmcpPolicy final : public policy::ReplacementPolicy {
 public:
  explicit WeightedCmcpPolicy(policy::PolicyHost& host)
      : host_(host), buckets_(2 * host.num_cores() + 2) {}

  std::string_view name() const override { return "CMCP-W"; }

  void on_insert(mm::ResidentPage& page) override {
    page.bucket = weight(page);
    buckets_[page.bucket].push_back(page);
  }

  void on_core_map_grow(mm::ResidentPage& page) override {
    // Re-rank: the page gained a mapping core.
    buckets_[page.bucket].erase(page);
    page.bucket = weight(page);
    buckets_[page.bucket].push_back(page);
  }

  mm::ResidentPage* pick_victim(CoreId /*core*/, Cycles& /*extra*/) override {
    // Lowest weight first; FIFO inside a bucket.
    for (auto& bucket : buckets_)
      if (mm::ResidentPage* page = bucket.front(); page != nullptr) return page;
    return nullptr;
  }

  void on_evict(mm::ResidentPage& page) override {
    buckets_[page.bucket].erase(page);
  }

 private:
  std::uint32_t weight(const mm::ResidentPage& page) const {
    // 2 points per mapping core; like CMCP, this uses only PSPT-provided
    // knowledge — no accessed bits, hence no scanning shootdowns ever.
    const std::uint32_t w = 2 * host_.core_map_count(page);
    return std::min<std::uint32_t>(w, static_cast<std::uint32_t>(buckets_.size() - 1));
  }

  policy::PolicyHost& host_;
  std::vector<IntrusiveList<mm::ResidentPage, &mm::ResidentPage::main_node>>
      buckets_;
};

}  // namespace

int main() {
  using namespace cmcp;

  const CoreId cores = 32;
  wl::WorkloadParams params;
  params.cores = cores;
  const auto workload = wl::make_paper_workload(wl::PaperWorkload::kBt, params);

  core::SimulationConfig config;
  config.machine.num_cores = cores;
  config.memory_fraction = wl::paper_memory_fraction(wl::PaperWorkload::kBt);

  metrics::Table table({"policy", "runtime (Mcyc)", "faults", "remote invals"});

  // Built-in baselines.
  for (const PolicyKind kind : {PolicyKind::kFifo, PolicyKind::kCmcp}) {
    config.policy.kind = kind;
    config.policy.cmcp.p = wl::paper_best_p(wl::PaperWorkload::kBt);
    config.custom_policy = nullptr;
    const auto r = core::run_simulation(config, *workload);
    table.add_row({std::string(to_string(kind)),
                   metrics::fmt_double(r.makespan / 1e6, 1),
                   metrics::fmt_u64(r.app_total.major_faults),
                   metrics::fmt_u64(r.app_total.remote_invalidations_received)});
  }

  // The custom policy, injected through the factory hook.
  config.custom_policy = [](policy::PolicyHost& host) {
    return std::make_unique<WeightedCmcpPolicy>(host);
  };
  const auto custom = core::run_simulation(config, *workload);
  table.add_row({"CMCP-W (custom)", metrics::fmt_double(custom.makespan / 1e6, 1),
                 metrics::fmt_u64(custom.app_total.major_faults),
                 metrics::fmt_u64(custom.app_total.remote_invalidations_received)});

  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "See policy/replacement_policy.h for the full interface: scanner hooks "
      "(on_scan),\nperiodic ticks (on_tick), and PolicyHost services "
      "(accessed-bit reads at\nshootdown cost) are all available to custom "
      "policies.\n");
  return 0;
}
