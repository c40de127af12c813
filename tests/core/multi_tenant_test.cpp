// Multi-tenant runner semantics: a 1-tenant run through the tenant-list
// entry point is the same simulation as core::Simulation(SimulationConfig);
// both entry points honour the CMCP_CHAOS_FAULTS hook the same way; tenants
// with disjoint barriers finish independently; proportional share evicts
// the noisy neighbor instead of a tenant inside its target; frame ownership
// accounting survives the full engine.
#include "core/multi_tenant.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "mm/page_table.h"
#include "sim/fault_plan.h"
#include "sim/trace.h"
#include "workloads/access_stream.h"
#include "workloads/workload_factory.h"

namespace cmcp::core {
namespace {

class ScriptedWorkload final : public wl::Workload {
 public:
  ScriptedWorkload(CoreId cores, std::uint64_t pages,
                   std::vector<std::vector<wl::Op>> scripts)
      : cores_(cores), pages_(pages) {
    for (auto& ops : scripts)
      scripts_.push_back(
          std::make_shared<const std::vector<wl::Op>>(std::move(ops)));
  }

  std::string_view name() const override { return "scripted"; }
  CoreId num_cores() const override { return cores_; }
  std::uint64_t footprint_base_pages() const override { return pages_; }
  std::unique_ptr<wl::AccessStream> make_stream(CoreId core) const override {
    return std::make_unique<wl::VectorStream>(scripts_[core]);
  }

 private:
  CoreId cores_;
  std::uint64_t pages_;
  std::vector<std::shared_ptr<const std::vector<wl::Op>>> scripts_;
};

std::vector<wl::Op> thrash_script(std::uint64_t pages) {
  return {wl::Op::access(0, true, static_cast<std::uint32_t>(pages)),
          wl::Op::barrier(),
          wl::Op::access(0, false, static_cast<std::uint32_t>(pages))};
}

/// One row of the single-tenant equivalence table.
struct EquivalenceCase {
  const char* name;
  PageTableKind pt;
  PolicyKind policy;
  double memory_fraction;
  const char* faults;  ///< FaultPlanConfig spec; "" = no explicit plan
  /// True when the run actually drove the path the row names, so the
  /// equivalence proves what it claims.
  bool (*exercised)(const SimulationResult&);
};

const EquivalenceCase kEquivalenceCases[] = {
    {"pspt_cmcp_constrained", PageTableKind::kPspt, PolicyKind::kCmcp, 0.5, "",
     [](const SimulationResult& r) { return r.app_total.evictions > 0; }},
    {"pspt_lru_scanner", PageTableKind::kPspt, PolicyKind::kLru, 0.5, "",
     [](const SimulationResult& r) { return r.scans > 0; }},
    {"regular_fifo", PageTableKind::kRegular, PolicyKind::kFifo, 0.37, "",
     [](const SimulationResult& r) {
       return r.app_total.remote_invalidations_received > 0;
     }},
    {"fault_plan", PageTableKind::kPspt, PolicyKind::kCmcp, 0.5,
     "seed=5,pcie=0.02,sticky=0.005,ack=0.05,poison=2,straggler=0.1",
     [](const SimulationResult& r) {
       return r.fault_stats.total_injected() > 0;
     }},
};

std::unique_ptr<wl::Workload> small_bt() {
  wl::WorkloadParams params;
  params.cores = 4;
  params.scale = 0.05;
  return wl::make_paper_workload(wl::PaperWorkload::kBt, params);
}

std::string jsonl_of(const sim::trace::EventSink& sink) {
  std::ostringstream out;
  sim::trace::export_jsonl(sink, {{"run", "equivalence"}}, {}, out);
  return out.str();
}

TEST(MultiTenant, SingleTenantMatchesSimulation) {
  // The tenant-list entry point with one kNone tenant must BE the
  // single-tenant run: same machine layout (scanner pseudo-core included),
  // same virtual-time interleaving, same counters on every core, same policy
  // and fault accounting, same trace bytes. This guards Simulation's
  // SimulationConfig -> one-tenant translation. TenantRunConfig has no
  // preload or prefetch knob; Simulation.PreloadForcesFullCapacity and
  // Prefetch.EndToEndHelpsSequentialWorkload pin those rows.
  for (const EquivalenceCase& c : kEquivalenceCases) {
    SCOPED_TRACE(c.name);
    sim::FaultPlanConfig faults;
    ASSERT_EQ(sim::FaultPlanConfig::parse(c.faults, &faults), "");

    SimulationConfig sconfig;
    sconfig.pt_kind = c.pt;
    sconfig.policy.kind = c.policy;
    sconfig.memory_fraction = c.memory_fraction;
    sconfig.faults = faults;
    sim::trace::EventSink solo_sink;
    sconfig.trace = &solo_sink;
    const auto solo = small_bt();
    const SimulationResult expected = run_simulation(sconfig, *solo);
    EXPECT_TRUE(c.exercised(expected));

    wl::MultiTenantSpec spec;
    spec.add(small_bt());
    MultiTenantConfig mconfig;
    mconfig.memory_fraction = c.memory_fraction;
    mconfig.faults = faults;
    sim::trace::EventSink tenant_sink;
    mconfig.trace = &tenant_sink;
    std::vector<TenantRunConfig> tenants(1);
    tenants[0].pt_kind = c.pt;
    tenants[0].policy.kind = c.policy;
    Simulation sim(mconfig, spec, tenants);
    const MultiTenantResult actual = sim.run_tenants();

    ASSERT_EQ(actual.tenants.size(), 1u);
    const TenantResult& tenant = actual.tenants[0];
    EXPECT_EQ(actual.makespan, expected.makespan);
    EXPECT_EQ(tenant.makespan, expected.makespan);
    ASSERT_EQ(tenant.num_cores, expected.per_core.size());
    for (CoreId core = 0; core < tenant.num_cores; ++core)
      EXPECT_EQ(sim.machine().counters(core), expected.per_core[core])
          << "core " << core;
    EXPECT_EQ(tenant.total, expected.app_total);
    EXPECT_EQ(tenant.scanner, expected.scanner);
    EXPECT_EQ(tenant.policy_name, expected.policy_name);
    EXPECT_EQ(tenant.policy_stats, expected.policy_stats);
    EXPECT_EQ(tenant.scans, expected.scans);
    EXPECT_EQ(tenant.footprint_units, expected.footprint_units);
    EXPECT_EQ(actual.shared_capacity_units, expected.capacity_units);
    EXPECT_EQ(sim.memory_manager().space(0).sharing_histogram(),
              expected.sharing_histogram);
    EXPECT_EQ(actual.faults_enabled, expected.faults_enabled);
    EXPECT_EQ(actual.fault_config.to_spec(), expected.fault_config.to_spec());
    EXPECT_EQ(actual.fault_stats, expected.fault_stats);
    EXPECT_FALSE(solo_sink.empty());
    EXPECT_EQ(jsonl_of(tenant_sink), jsonl_of(solo_sink));
  }
}

/// Sets CMCP_CHAOS_FAULTS for one scope and restores the previous value on
/// exit (the CI chaos job runs the whole suite with it set).
class ScopedChaosEnv {
 public:
  explicit ScopedChaosEnv(const char* spec) {
    if (const char* old = std::getenv(kVar)) saved_ = old;
    setenv(kVar, spec, 1);
  }
  ~ScopedChaosEnv() {
    if (saved_)
      setenv(kVar, saved_->c_str(), 1);
    else
      unsetenv(kVar);
  }
  ScopedChaosEnv(const ScopedChaosEnv&) = delete;
  ScopedChaosEnv& operator=(const ScopedChaosEnv&) = delete;

 private:
  static constexpr const char* kVar = "CMCP_CHAOS_FAULTS";
  std::optional<std::string> saved_;
};

constexpr const char* kEnvSpec = "seed=3,pcie=0.2";

ScriptedWorkload chaos_workload() {
  return ScriptedWorkload(2, 24, {thrash_script(24), thrash_script(24)});
}

/// The effective plan a run used, through each entry point.
sim::FaultPlanConfig simulation_plan(const sim::FaultPlanConfig& explicit_plan) {
  SimulationConfig config;
  config.memory_fraction = 0.5;
  config.faults = explicit_plan;
  const SimulationResult result = run_simulation(config, chaos_workload());
  EXPECT_TRUE(result.faults_enabled);
  return result.fault_config;
}

sim::FaultPlanConfig multi_tenant_plan(const sim::FaultPlanConfig& explicit_plan) {
  wl::MultiTenantSpec spec;
  spec.add(std::make_unique<ScriptedWorkload>(chaos_workload()));
  MultiTenantConfig config;
  config.memory_fraction = 0.5;
  config.faults = explicit_plan;
  const MultiTenantResult result =
      run_multi_tenant(config, spec, std::vector<TenantRunConfig>(1));
  EXPECT_TRUE(result.faults_enabled);
  return result.fault_config;
}

TEST(ChaosHook, EnvPlanRunsWhenFaultsOff) {
  const ScopedChaosEnv env(kEnvSpec);
  sim::FaultPlanConfig env_plan;
  ASSERT_EQ(sim::FaultPlanConfig::parse(kEnvSpec, &env_plan), "");
  EXPECT_EQ(simulation_plan({}).to_spec(), env_plan.to_spec());
  EXPECT_EQ(multi_tenant_plan({}).to_spec(), env_plan.to_spec());
}

TEST(ChaosHook, ExplicitPlanWinsOverEnv) {
  const ScopedChaosEnv env(kEnvSpec);
  sim::FaultPlanConfig explicit_plan;
  ASSERT_EQ(sim::FaultPlanConfig::parse("seed=9,ack=0.1", &explicit_plan), "");
  EXPECT_EQ(simulation_plan(explicit_plan).to_spec(), explicit_plan.to_spec());
  EXPECT_EQ(multi_tenant_plan(explicit_plan).to_spec(),
            explicit_plan.to_spec());
}

TEST(ChaosHookDeath, MalformedSpecDies) {
  const ScopedChaosEnv env("pcie=notanumber");
  // The abort names the entry and its allowed range, as --faults does.
  const char* kMessage =
      "malformed CMCP_CHAOS_FAULTS spec: 'pcie=notanumber': pcie must be in "
      "\\[0, 1\\]";
  EXPECT_DEATH(simulation_plan({}), kMessage);
  EXPECT_DEATH(multi_tenant_plan({}), kMessage);
}

TEST(MultiTenant, TenantsFinishIndependently) {
  // Tenant 0 is short, tenant 1 long, both with internal barriers. If the
  // barrier groups leaked across tenants the short one would deadlock
  // waiting for cores that never reach "its" barrier.
  wl::MultiTenantSpec spec;
  spec.add(std::make_unique<ScriptedWorkload>(
      2, 8, std::vector<std::vector<wl::Op>>{thrash_script(8),
                                             thrash_script(8)}));
  spec.add(std::make_unique<ScriptedWorkload>(
      2, 64, std::vector<std::vector<wl::Op>>{thrash_script(64),
                                              thrash_script(64)}));
  MultiTenantConfig config;
  config.memory_fraction = 1.0;
  std::vector<TenantRunConfig> tenants(2);
  const MultiTenantResult result = run_multi_tenant(config, spec, tenants);
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_GT(result.tenants[0].makespan, 0u);
  EXPECT_LT(result.tenants[0].makespan, result.tenants[1].makespan);
  EXPECT_EQ(result.makespan, result.tenants[1].makespan);
}

TEST(MultiTenant, PsptAllocatesNoTableForAnotherTenantsCores) {
  // PSPT tables are per space; a tenant's cores never touch another
  // tenant's space, so they map nothing in it.
  wl::MultiTenantSpec spec;
  spec.add(std::make_unique<ScriptedWorkload>(
      2, 8, std::vector<std::vector<wl::Op>>{thrash_script(8),
                                             thrash_script(8)}));
  spec.add(std::make_unique<ScriptedWorkload>(
      3, 16, std::vector<std::vector<wl::Op>>{
                 thrash_script(16), thrash_script(16), thrash_script(16)}));
  MultiTenantConfig config;
  config.memory_fraction = 1.0;
  Simulation sim(config, spec, std::vector<TenantRunConfig>(2));
  const MultiTenantResult result = sim.run_tenants();
  ASSERT_EQ(result.tenants.size(), 2u);
  for (Asid t = 0; t < 2; ++t) {
    const mm::PageTable& pspt = sim.memory_manager().space(t).page_table();
    ASSERT_EQ(pspt.kind(), PageTableKind::kPspt);
    for (CoreId c = 0; c < 5; ++c) {
      const bool own = c >= result.tenants[t].first_core &&
                       c < result.tenants[t].first_core +
                               result.tenants[t].num_cores;
      EXPECT_EQ(pspt.mapped_units_of_core(c) > 0, own)
          << "space " << t << " core " << c;
    }
  }
}

TEST(MultiTenant, RegularTableShootsDownOnlyItsOwnCores) {
  // A regular table cannot tell which of its cores cached a unit, but only
  // its own tenant's cores can: its broadcast reaches that core block, not
  // the machine. Under kNone each tenant evicts only from itself, so every
  // remote invalidation a tenant's cores receive must come from its own
  // shootdowns — the interference matrix's diagonal.
  wl::MultiTenantSpec spec;
  spec.add(small_bt());
  spec.add(small_bt());
  MultiTenantConfig config;
  config.memory_fraction = 0.5;
  std::vector<TenantRunConfig> tenants(2);
  tenants[0].pt_kind = PageTableKind::kRegular;
  tenants[0].policy.kind = PolicyKind::kFifo;
  tenants[1].pt_kind = PageTableKind::kPspt;
  tenants[1].policy.kind = PolicyKind::kCmcp;
  const MultiTenantResult result = run_multi_tenant(config, spec, tenants);
  ASSERT_EQ(result.tenants.size(), 2u);
  ASSERT_GT(result.tenants[0].total.evictions, 0u);
  // A lost acknowledgement (a CMCP_CHAOS_FAULTS run) re-sends its round,
  // which interrupts every target again: at most one re-sent round per
  // ack fault injected.
  const std::uint64_t resent_rounds =
      result.fault_stats.injected[static_cast<std::size_t>(
          sim::FaultKind::kShootdownAck)];
  for (Asid t = 0; t < 2; ++t) {
    const TenantResult& tr = result.tenants[t];
    EXPECT_EQ(result.interference[(1 - t) * 2 + t], 0u) << "tenant " << t;
    EXPECT_EQ(tr.total.remote_invalidations_received,
              result.interference[t * 2 + t])
        << "tenant " << t;
    // Each IPI round interrupts at most the other three cores of the block.
    EXPECT_LE(tr.total.ipis_received,
              3 * (tr.total.shootdowns_initiated + resent_rounds))
        << "tenant " << t;
  }
}

TEST(MultiTenant, ProportionalShareEvictsNoisyNeighbor) {
  // Equal shares, one tenant four times the footprint: under contention the
  // small tenant must keep at least its target's worth of progress — the
  // noisy neighbor is the preferred victim once it exceeds its target.
  wl::MultiTenantSpec spec;
  spec.add(std::make_unique<ScriptedWorkload>(
      1, 16,
      std::vector<std::vector<wl::Op>>{{wl::Op::access(0, false, 16),
                                        wl::Op::access(0, false, 16)}}));
  spec.add(std::make_unique<ScriptedWorkload>(
      1, 64,
      std::vector<std::vector<wl::Op>>{{wl::Op::access(0, true, 64),
                                        wl::Op::access(0, true, 64)}}));
  MultiTenantConfig config;
  config.partition = mm::PartitionKind::kProportionalShare;
  config.memory_fraction = 0.4;  // 32 of the 80 units: targets 16/16
  std::vector<TenantRunConfig> tenants(2);
  tenants[0].policy.kind = PolicyKind::kFifo;
  tenants[1].policy.kind = PolicyKind::kFifo;
  const MultiTenantResult result = run_multi_tenant(config, spec, tenants);

  ASSERT_EQ(result.shared_capacity_units, 32u);
  EXPECT_EQ(result.tenants[0].capacity_target_units, 16u);
  // The small tenant fits inside its target: only cold misses.
  EXPECT_EQ(result.tenants[0].total.major_faults, 16u);
  EXPECT_GT(result.tenants[1].total.major_faults, 64u);
  // Frame accounting cross-foot at end of run.
  EXPECT_LE(result.tenants[0].resident_units_end +
                result.tenants[1].resident_units_end,
            result.shared_capacity_units);
}

}  // namespace
}  // namespace cmcp::core
