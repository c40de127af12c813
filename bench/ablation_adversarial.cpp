// Ablation A4: the paper concedes (section 3) that "one could intentionally
// construct memory access patterns for which this heuristic wouldn't work
// well." This bench constructs exactly that pattern — a widely-shared
// region touched once and never again, plus hot private working sets — and
// measures how badly CMCP misfires and how much aging rescues it.
#include <cstdio>

#include "bench_mode.h"
#include "cmcp.h"

using namespace cmcp;

int main() {
  const CoreId cores = metrics::fast_mode() ? 16 : 32;
  std::printf(
      "Ablation A4 — adversarial anti-CMCP pattern (%u cores)\n"
      "dead shared region (max core-map count, touched once) + hot private "
      "sets\n\n",
      cores);

  // Sizing is the point: the hot private set fits device memory (FIFO
  // streams the dead region through once and then never faults again), but
  // if CMCP pins the dead shared region, what remains no longer holds the
  // hot set and it thrashes forever.
  wl::AdversarialParams params;
  params.base.cores = cores;
  params.dead_shared_pages = 2048;
  params.private_pages_per_core = 96;
  params.rounds = 24;
  wl::AdversarialWorkload workload(params);

  metrics::Table table({"policy", "runtime (Mcyc)", "faults", "vs FIFO"});

  core::SimulationConfig base;
  base.machine.num_cores = cores;
  base.memory_fraction = 0.70;

  const auto run = [&](PolicyKind kind, double p, bool aging,
                       const std::string& label) {
    core::SimulationConfig config = base;
    config.policy.kind = kind;
    config.policy.cmcp.p = p;
    config.policy.cmcp.aging_enabled = aging;
    const auto result = core::run_simulation(config, workload);
    return std::make_pair(label, result);
  };

  const auto fifo = run(PolicyKind::kFifo, 0, true, "FIFO");
  const auto rows = {
      fifo,
      run(PolicyKind::kLru, 0, true, "LRU"),
      run(PolicyKind::kCmcp, 0.6, true, "CMCP p=0.6 (aging on)"),
      run(PolicyKind::kCmcp, 0.6, false, "CMCP p=0.6 (aging OFF)"),
      run(PolicyKind::kCmcp, 0.1, true, "CMCP p=0.1 (aging on)"),
      run(PolicyKind::kCmcpDynamicP, 0.6, true, "CMCP dynamic-p"),
  };

  for (const auto& [label, result] : rows) {
    table.add_row({label, metrics::fmt_double(result.makespan / 1e6, 1),
                   metrics::fmt_u64(result.app_total.major_faults),
                   metrics::fmt_percent(static_cast<double>(
                                            fifo.second.makespan) /
                                        result.makespan)});
  }

  std::printf("%s\n", table.markdown().c_str());
  std::printf(
      "Expected: CMCP without aging pins the dead shared region and loses "
      "badly; aging\n(and the dynamic-p controller) bound the damage.\n");
  table.save_csv("results/ablation_adversarial.csv");
  return 0;
}
