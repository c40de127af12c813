// Wall-clock benchmark harness for the simulator itself: how fast does the
// host machine push simulated memory references through the engine?
//
// Two kinds of phases:
//   * sim   — full paper-shaped runs (fig6 sharing, fig7 56-core scalability,
//             fig8 memory-constrained) timed end to end, reporting
//             ns per simulated reference and references/second.
//   * micro — hand-timed loops over the hot data structures (PTE walk, TLB
//             hit, fault+evict cycle, scanner sweep), the operations the
//             fault path executes millions of times per simulated second.
//
// The result is a machine-readable BENCH document through
// metrics::ResultWriter (see docs/performance.md for the schema and how CI
// gates on it via tools/bench_compare):
//
//   wallclock [--json FILE] [--repeat N] [--filter SUBSTR]
//
// Numbers are only comparable within one build configuration: commit JSONs
// from the `release` preset (-O2 -DNDEBUG, SimCheck off) exclusively.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_mode.h"
#include "cmcp.h"
#include "common/parse_number.h"
#include "core/multi_tenant.h"
#include "metrics/experiment.h"
#include "metrics/result_writer.h"
#include "mm/frame_partition.h"
#include "mm/page_registry.h"
#include "mm/pspt.h"
#include "policy/fifo.h"
#include "sim/fault_plan.h"
#include "sim/pcie_link.h"
#include "sim/tlb.h"
#include "workloads/multi_tenant.h"

using namespace cmcp;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Peak resident set size of this process in kB (Linux ru_maxrss unit).
std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

std::string shell_output(const std::string& command) {
  std::string out;
  if (FILE* p = popen(command.c_str(), "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
      return line.substr(std::min(colon + 2, line.size()));
  }
  return "unknown";
}

/// Which build and host produced the numbers, the same fields
/// bench/suite records, so two BENCH documents show whether they can be
/// compared at all. The commit is read from the source tree at run time:
/// "unknown" outside a git checkout.
void write_provenance(metrics::ResultWriter& writer) {
  const std::string git = std::string("git -C '") + CMCP_SOURCE_DIR + "' ";
  std::string commit = shell_output(git + "rev-parse HEAD 2>/dev/null");
  std::string dirty = "unknown";
  if (commit.empty()) {
    commit = "unknown";
  } else {
    const std::string status = shell_output(
        git + "status --porcelain --untracked-files=no 2>/dev/null");
    dirty = status.empty() ? "false" : "true";
  }
  writer.meta("commit", commit);
  writer.meta("dirty", dirty);
  writer.meta("compiler", CMCP_COMPILER);
  writer.meta("cpu_model", cpu_model());
  writer.meta("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
}

struct PhaseResult {
  std::string name;
  std::string kind;  ///< "sim" | "micro"
  std::uint64_t refs = 0;
  double wall_ns = 0.0;
  double build_ns = 0.0;  ///< sim only: workload + machine construction
  std::uint64_t makespan = 0;  ///< sim only
  std::uint64_t rss_kb = 0;    ///< peak RSS observed after the phase
};

/// Best-of-N timed run of fn() -> (refs, ns). Keeping the minimum wall time
/// filters scheduler noise without averaging away real regressions.
template <typename Fn>
PhaseResult best_of(const std::string& name, const std::string& kind,
                    unsigned repeat, Fn&& fn) {
  PhaseResult best;
  best.name = name;
  best.kind = kind;
  for (unsigned i = 0; i < repeat; ++i) {
    PhaseResult r = fn();
    if (i == 0 || r.wall_ns < best.wall_ns) {
      r.name = name;
      r.kind = kind;
      best = r;
    }
  }
  best.rss_kb = peak_rss_kb();
  return best;
}

PhaseResult run_sim_phase(const metrics::RunSpec& spec) {
  PhaseResult r;
  const auto t0 = Clock::now();
  wl::WorkloadParams base;
  base.cores = spec.cores;
  base.seed = spec.seed;
  if (spec.scale > 0.0) base.scale = spec.scale;
  const auto workload = wl::make_paper_workload(spec.workload, base, spec.size);
  core::SimulationConfig config = spec.to_config();
  core::Simulation sim(config, *workload);
  const auto t1 = Clock::now();
  const auto result = sim.run();
  const auto t2 = Clock::now();
  r.refs = result.app_total.accesses;
  r.build_ns = ns_between(t0, t1);
  r.wall_ns = ns_between(t1, t2);
  r.makespan = result.makespan;
  return r;
}

/// Multi-tenant sim phase: `tenants` paper workloads (alternating cg / bt)
/// stacked on one machine under proportional-share partitioning, sized so
/// the shared device stays contended. Exercises the coordinator paths the
/// single-tenant rows cannot: per-space fault/evict/scan, cross-space QoS
/// victim picks, and frame-ownership accounting.
PhaseResult run_mt_phase(unsigned tenants, CoreId cores_per_tenant,
                         double memory_fraction) {
  PhaseResult r;
  const auto t0 = Clock::now();
  wl::WorkloadParams base;
  base.cores = cores_per_tenant;
  wl::MultiTenantSpec spec;
  std::vector<core::TenantRunConfig> tenant_configs(tenants);
  for (unsigned t = 0; t < tenants; ++t) {
    const wl::PaperWorkload w =
        (t % 2 == 0) ? wl::PaperWorkload::kCg : wl::PaperWorkload::kBt;
    spec.add(wl::make_paper_workload(w, base));
    tenant_configs[t].policy.kind = PolicyKind::kCmcp;
    tenant_configs[t].policy.cmcp.p = wl::paper_best_p(w);
  }
  core::MultiTenantConfig config;
  config.partition = mm::PartitionKind::kProportionalShare;
  config.memory_fraction = memory_fraction;
  const auto t1 = Clock::now();
  const core::MultiTenantResult result =
      core::run_multi_tenant(config, spec, tenant_configs);
  const auto t2 = Clock::now();
  for (const core::TenantResult& t : result.tenants)
    r.refs += t.total.accesses;
  r.build_ns = ns_between(t0, t1);
  r.wall_ns = ns_between(t1, t2);
  r.makespan = result.makespan;
  return r;
}

// --- micro phases -----------------------------------------------------------

PhaseResult micro_tlb_hit(std::uint64_t iters) {
  sim::Tlb tlb(64);
  tlb.size_units(64);
  for (UnitIdx u = 0; u < 64; ++u) tlb.insert(u);
  PhaseResult r;
  const auto t0 = Clock::now();
  std::uint64_t hits = 0;
  UnitIdx u = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    hits += tlb.lookup(u) ? 1 : 0;
    u = (u + 1) & 63;
  }
  r.wall_ns = ns_between(t0, Clock::now());
  r.refs = iters;
  if (hits != iters) std::fprintf(stderr, "tlb_hit: unexpected misses\n");
  return r;
}

PhaseResult micro_pte_walk(std::uint64_t iters) {
  constexpr CoreId kCores = 56;
  constexpr UnitIdx kUnits = 1 << 15;
  mm::Pspt pt(kCores, kUnits);
  for (UnitIdx u = 0; u < kUnits; ++u) pt.map(u % kCores, u);
  PhaseResult r;
  const auto t0 = Clock::now();
  std::uint64_t mapped = 0;
  UnitIdx u = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const CoreId core = static_cast<CoreId>(u % kCores);
    if (pt.has_mapping(core, u)) {
      pt.mark_accessed(core, u);
      ++mapped;
    }
    u = (u + 1) & (kUnits - 1);
  }
  r.wall_ns = ns_between(t0, Clock::now());
  r.refs = iters;
  if (mapped != iters) std::fprintf(stderr, "pte_walk: unexpected misses\n");
  return r;
}

PhaseResult micro_fault_evict(std::uint64_t iters) {
  constexpr std::uint64_t kResident = 1024;
  constexpr UnitIdx kSpace = 1 << 16;  // bounded so dense tables stay small
  mm::FrameAllocator frames(kResident, PageSizeClass::k4K);
  mm::PageRegistry reg(kSpace);
  policy::FifoPolicy policy;
  const auto make_resident = [&](UnitIdx unit) {
    mm::ResidentPage* pg = frames.allocate(0, unit);
    reg.insert(*pg);
    policy.on_insert(*pg);
  };
  for (UnitIdx u = 0; u < kResident; ++u) make_resident(u);
  PhaseResult r;
  UnitIdx next = kResident;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    Cycles extra = 0;
    mm::ResidentPage* victim = policy.pick_victim(0, extra);
    policy.on_evict(*victim);
    reg.erase(*victim);
    frames.free(*victim);
    make_resident(next);
    // FIFO recycles a unit ~kResident insertions after its eviction, long
    // after it left the registry, so wrapped ids never collide.
    next = (next + 1) % kSpace;
  }
  r.wall_ns = ns_between(t0, Clock::now());
  r.refs = iters;
  return r;
}

PhaseResult micro_scan_sweep(std::uint64_t sweeps) {
  constexpr CoreId kCores = 56;
  constexpr UnitIdx kUnits = 1 << 14;
  mm::Pspt pt(kCores, kUnits);
  mm::FrameAllocator frames(kUnits, PageSizeClass::k4K);
  mm::PageRegistry reg(kUnits);
  for (UnitIdx u = 0; u < kUnits; ++u) {
    pt.map(u % kCores, u);
    if (u % 3 == 0) pt.map((u + 1) % kCores, u);
    reg.insert(*frames.allocate(0, u));
    if ((u & 7) != 0) pt.mark_accessed(u % kCores, u);
  }
  PhaseResult r;
  std::uint64_t referenced = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t s = 0; s < sweeps; ++s) {
    reg.for_each([&](mm::ResidentPage& pg) {
      unsigned reads = 0;
      if (pt.test_accessed(pg.unit, &reads)) {
        ++referenced;
        pt.clear_accessed(pg.unit);
        pt.mark_accessed(pg.unit % kCores, pg.unit);  // re-arm for next sweep
      }
    });
  }
  r.wall_ns = ns_between(t0, Clock::now());
  r.refs = sweeps * kUnits;
  if (referenced == 0) std::fprintf(stderr, "scan_sweep: nothing referenced\n");
  return r;
}

PhaseResult micro_fault_recovery(std::uint64_t iters) {
  // Fault-path micro: seeded injection draws plus the retry/backoff episode
  // arithmetic of a fault-planned PcieLink::transfer, with a straggler hash
  // query per iteration. The rates keep ~6% of transfers on the recovery
  // path, so both the healthy branch and the episode math are timed.
  sim::PcieLink link;
  sim::FaultPlanConfig fc;
  fc.seed = 9;
  fc.pcie_transient_rate = 0.05;
  fc.pcie_sticky_rate = 0.01;
  fc.straggler_rate = 0.1;
  sim::FaultPlan plan(fc);
  PhaseResult r;
  Cycles now = 0;
  std::uint64_t failures = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const sim::PcieTransferOutcome out =
        link.transfer(sim::PcieDir::kHostToDevice, now, 4096, &plan);
    failures += out.failures;
    bool window_start = false;
    (void)plan.straggler_mult_at(static_cast<CoreId>(i & 7), now,
                                 &window_start);
    now = out.done;
  }
  r.wall_ns = ns_between(t0, Clock::now());
  r.refs = iters;
  if (failures == 0)
    std::fprintf(stderr, "fault_recovery: nothing injected\n");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  unsigned repeat = 2;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = common::parse_flag<unsigned>(argv[i], argv[i + 1]);
      ++i;
      if (repeat == 0) repeat = 1;
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json FILE] [--repeat N] [--filter SUBSTR]\n",
                   argv[0]);
      return 2;
    }
  }

  const bool fast = metrics::fast_mode();
  const CoreId paper_cores = fast ? 8 : 56;
  const std::uint64_t micro_iters = fast ? 2'000'000 : 20'000'000;
  const std::uint64_t micro_sweeps = fast ? 50 : 500;

  struct SimCase {
    const char* name;
    wl::PaperWorkload workload;
    PageTableKind pt;
    PolicyKind policy;
    double memory_fraction;  ///< <= 0 selects the paper's per-workload value
    CoreId cores = 0;        ///< 0 = paper_cores (8 fast / 56 full)
    double scale = 0.0;      ///< 0 = workload default; else fixed scale
    bool full_mode_only = false;
  };
  const SimCase sims[] = {
      // Fig. 6 shape: unconstrained PSPT, sharing histogram path exercised.
      {"fig6_bt_sharing", wl::PaperWorkload::kBt, PageTableKind::kPspt,
       PolicyKind::kCmcp, 1.0},
      // Fig. 7 shapes at the paper's max core count and memory constraint.
      {"fig7_bt_cmcp", wl::PaperWorkload::kBt, PageTableKind::kPspt,
       PolicyKind::kCmcp, -1.0},
      {"fig7_cg_cmcp", wl::PaperWorkload::kCg, PageTableKind::kPspt,
       PolicyKind::kCmcp, -1.0},
      {"fig7_bt_lru", wl::PaperWorkload::kBt, PageTableKind::kPspt,
       PolicyKind::kLru, -1.0},
      {"fig7_bt_regular_fifo", wl::PaperWorkload::kBt, PageTableKind::kRegular,
       PolicyKind::kFifo, -1.0},
      // Fig. 7 at the paper's full 56 cores even in fast mode, scale-shrunk
      // there so CI's fast bench job still gates the 56-core engine rows
      // (the plain fig7 rows drop to 8 cores under CMCP_BENCH_FAST).
      {"fig7_bt_cmcp_56c", wl::PaperWorkload::kBt, PageTableKind::kPspt,
       PolicyKind::kCmcp, -1.0, 56, fast ? 0.5 : 0.0},
      {"fig7_cg_cmcp_56c", wl::PaperWorkload::kCg, PageTableKind::kPspt,
       PolicyKind::kCmcp, -1.0, 56, fast ? 0.5 : 0.0},
      // Past-the-paper sweep rows: where does CMCP's no-shootdown advantage
      // saturate? Full workload scale — per-core iteration counts already
      // shrink as cores grow, so even 512 cores is a sub-second row and can
      // run in CI fast mode; 1024 is full-mode only.
      {"sweep_bt_cmcp_512c", wl::PaperWorkload::kBt, PageTableKind::kPspt,
       PolicyKind::kCmcp, -1.0, 512},
      {"sweep_bt_cmcp_1024c", wl::PaperWorkload::kBt, PageTableKind::kPspt,
       PolicyKind::kCmcp, -1.0, 1024, 0.0, /*full_mode_only=*/true},
      // Fig. 8 shape: memory-constrained CG (heavy fault + eviction traffic).
      {"fig8_cg_constrained", wl::PaperWorkload::kCg, PageTableKind::kPspt,
       PolicyKind::kCmcp, 0.25},
  };

  std::vector<PhaseResult> phases;
  const auto want = [&](const char* name) {
    return filter.empty() || std::string(name).find(filter) != std::string::npos;
  };

  for (const SimCase& c : sims) {
    if (!want(c.name)) continue;
    if (c.full_mode_only && fast) continue;
    metrics::RunSpec spec;
    spec.workload = c.workload;
    spec.cores = c.cores != 0 ? c.cores : paper_cores;
    spec.pt_kind = c.pt;
    spec.policy.kind = c.policy;
    spec.policy.cmcp.p = wl::paper_best_p(c.workload);
    spec.memory_fraction = c.memory_fraction;
    spec.scale = c.scale;
    phases.push_back(
        best_of(c.name, "sim", repeat, [&] { return run_sim_phase(spec); }));
    std::printf("%-22s %10.1f ms  %8.1f ns/ref\n", phases.back().name.c_str(),
                phases.back().wall_ns / 1e6,
                phases.back().wall_ns /
                    static_cast<double>(std::max<std::uint64_t>(
                        phases.back().refs, 1)));
  }

  // Multi-tenant rows: total app cores match the single-tenant rows so
  // ns/ref is comparable; memory_fraction is of the COMBINED footprint,
  // tight enough that cross-tenant eviction pressure is constant.
  struct MtCase {
    const char* name;
    unsigned tenants;
    double memory_fraction;
  };
  const MtCase mts[] = {
      {"mt2_cg_bt_prop", 2, 0.5},
      {"mt4_cg_bt_prop", 4, 0.5},
  };
  for (const MtCase& c : mts) {
    if (!want(c.name)) continue;
    const CoreId per_tenant = static_cast<CoreId>(
        std::max<unsigned>(1, paper_cores / c.tenants));
    phases.push_back(best_of(c.name, "sim", repeat, [&] {
      return run_mt_phase(c.tenants, per_tenant, c.memory_fraction);
    }));
    std::printf("%-22s %10.1f ms  %8.1f ns/ref\n", phases.back().name.c_str(),
                phases.back().wall_ns / 1e6,
                phases.back().wall_ns /
                    static_cast<double>(std::max<std::uint64_t>(
                        phases.back().refs, 1)));
  }

  struct MicroCase {
    const char* name;
    std::function<PhaseResult()> fn;
  };
  const MicroCase micros[] = {
      {"micro_tlb_hit", [&] { return micro_tlb_hit(micro_iters); }},
      {"micro_pte_walk", [&] { return micro_pte_walk(micro_iters); }},
      {"micro_fault_evict", [&] { return micro_fault_evict(micro_iters / 4); }},
      {"micro_scan_sweep", [&] { return micro_scan_sweep(micro_sweeps); }},
      {"micro_fault_recovery",
       [&] { return micro_fault_recovery(micro_iters / 4); }},
  };
  for (const MicroCase& m : micros) {
    if (!want(m.name)) continue;
    phases.push_back(best_of(m.name, "micro", repeat, m.fn));
    std::printf("%-22s %10.1f ms  %8.1f ns/op\n", phases.back().name.c_str(),
                phases.back().wall_ns / 1e6,
                phases.back().wall_ns /
                    static_cast<double>(std::max<std::uint64_t>(
                        phases.back().refs, 1)));
  }

  metrics::ResultWriter writer;
  writer.meta("bench", "wallclock");
  writer.meta("build_type",
#ifdef NDEBUG
              "NDEBUG"
#else
              "assertions"
#endif
  );
  writer.meta("simcheck", CMCP_SIMCHECK_ENABLED ? "on" : "off");
  writer.meta("fast_mode", fast ? "true" : "false");
  writer.meta("repeat", std::to_string(repeat));
  writer.meta("peak_rss_kb", std::to_string(peak_rss_kb()));
  write_provenance(writer);
  for (const PhaseResult& p : phases) {
    auto& row = writer.add_row();
    const double refs = static_cast<double>(std::max<std::uint64_t>(p.refs, 1));
    row.set("name", p.name)
        .set("kind", p.kind)
        .set("refs", p.refs)
        .set("wall_ns", p.wall_ns)
        .set("ns_per_ref", p.wall_ns / refs)
        .set("refs_per_sec", refs / (p.wall_ns / 1e9))
        .set("build_ns", p.build_ns)
        .set("makespan", p.makespan)
        .set("rss_kb", p.rss_kb);
  }
  if (!json_path.empty()) {
    writer.save_json(json_path);
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  std::printf("peak RSS: %llu kB\n",
              static_cast<unsigned long long>(peak_rss_kb()));
  return 0;
}
