// Engine robustness: randomized op mixes (accesses, compute, barriers,
// skewed per-core loads) must always terminate with monotone,
// consistent accounting — across page sizes, policies and coherence modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/rng.h"
#include "core/simulation.h"
#include "workloads/trace.h"

namespace cmcp::core {
namespace {

class FuzzWorkload final : public wl::Workload {
 public:
  FuzzWorkload(CoreId cores, std::uint64_t pages, std::uint64_t seed)
      : cores_(cores), pages_(pages) {
    Rng rng(seed);
    // Barriers must appear in the same count on every core; generate the
    // shared phase structure first.
    const unsigned phases = 1 + static_cast<unsigned>(rng.next_below(6));
    std::vector<std::vector<wl::Op>> schedules(cores);
    for (unsigned phase = 0; phase < phases; ++phase) {
      for (CoreId c = 0; c < cores; ++c) {
        const unsigned ops = static_cast<unsigned>(rng.next_below(40));
        for (unsigned i = 0; i < ops; ++i) {
          switch (rng.next_below(3)) {
            case 0:
            case 1: {
              const Vpn vpn = rng.next_below(pages);
              const auto max_count = pages - vpn;
              const auto count = 1 + rng.next_below(std::min<Vpn>(max_count, 16));
              schedules[c].push_back(wl::Op::access(
                  vpn, (rng.next() & 1) != 0,
                  static_cast<std::uint32_t>(count),
                  static_cast<std::uint16_t>(1 + rng.next_below(3)),
                  rng.next_below(2000)));
              break;
            }
            case 2:
              schedules[c].push_back(wl::Op::compute(rng.next_below(10000)));
              break;
          }
        }
        // Some cores end early in the last phase (tests barrier release on
        // termination).
        if (phase + 1 == phases && rng.next_below(4) == 0) continue;
      }
      for (CoreId c = 0; c < cores; ++c)
        schedules[c].push_back(wl::Op::barrier());
    }
    for (auto& ops : schedules)
      schedules_.push_back(
          std::make_shared<const std::vector<wl::Op>>(std::move(ops)));
  }

  std::string_view name() const override { return "fuzz"; }
  CoreId num_cores() const override { return cores_; }
  std::uint64_t footprint_base_pages() const override { return pages_; }
  std::unique_ptr<wl::AccessStream> make_stream(CoreId core) const override {
    return std::make_unique<wl::VectorStream>(schedules_[core]);
  }

 private:
  CoreId cores_;
  std::uint64_t pages_;
  std::vector<std::shared_ptr<const std::vector<wl::Op>>> schedules_;
};

struct FuzzParams {
  std::uint64_t seed;
  PolicyKind policy;
  PageSizeClass size;
  bool hw_tlb;
  double fraction;
};

// gtest would print the struct as raw bytes, padding included, and CTest
// names each case from that printout; printing the fields keeps the
// registered names the same from build to build (seed1-FIFO-4kB-sw-0.4).
void PrintTo(const FuzzParams& p, std::ostream* os) {
  *os << "seed" << p.seed << '-' << to_string(p.policy) << '-'
      << to_string(p.size) << '-' << (p.hw_tlb ? "hw" : "sw") << '-'
      << p.fraction;
}

class EngineFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(EngineFuzzTest, TerminatesWithConsistentAccounting) {
  const FuzzParams& p = GetParam();
  const CoreId cores = 6;
  const std::uint64_t pages = 96 * base_pages_per_unit(p.size);
  FuzzWorkload workload(cores, pages, p.seed);

  SimulationConfig config;
  config.machine.num_cores = cores;
  config.machine.page_size = p.size;
  config.machine.tlb_coherence = p.hw_tlb
                                     ? sim::TlbCoherence::kHardwareDirectory
                                     : sim::TlbCoherence::kIpiShootdown;
  config.policy.kind = p.policy;
  config.memory_fraction = p.fraction;

  Simulation sim(config, workload);
  const auto result = sim.run();

  // Completion and basic consistency.
  for (const auto& ctr : result.per_core) {
    EXPECT_GE(ctr.dtlb_misses, ctr.major_faults + ctr.minor_faults);
    EXPECT_EQ(ctr.pcie_bytes_in,
              (ctr.major_faults + ctr.prefetches) * unit_bytes(p.size));
    EXPECT_LE(ctr.prefetch_hits, result.app_total.prefetches);
  }
  EXPECT_GE(result.app_total.major_faults, result.app_total.evictions);
  // Every cycle a core spent is charged to exactly one bucket: the buckets
  // sum to the core's clock, and the longest clock is the makespan.
  Cycles longest = 0;
  for (CoreId c = 0; c < cores; ++c) {
    EXPECT_EQ(result.per_core[c].cycles_total(), sim.machine().clock(c))
        << "core " << c;
    longest = std::max(longest, sim.machine().clock(c));
  }
  EXPECT_EQ(result.makespan, longest);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineFuzzTest,
    ::testing::Values(
        FuzzParams{1, PolicyKind::kFifo, PageSizeClass::k4K, false, 0.4},
        FuzzParams{2, PolicyKind::kLru, PageSizeClass::k4K, false, 0.4},
        FuzzParams{3, PolicyKind::kCmcp, PageSizeClass::k4K, false, 0.3},
        FuzzParams{4, PolicyKind::kCmcp, PageSizeClass::k64K, false, 0.5},
        FuzzParams{5, PolicyKind::kClock, PageSizeClass::k4K, false, 0.4},
        FuzzParams{6, PolicyKind::kLfu, PageSizeClass::k2M, false, 0.5},
        FuzzParams{7, PolicyKind::kRandom, PageSizeClass::k4K, true, 0.4},
        FuzzParams{8, PolicyKind::kCmcpDynamicP, PageSizeClass::k4K, false, 0.3},
        FuzzParams{9, PolicyKind::kLru, PageSizeClass::k64K, true, 0.4},
        FuzzParams{10, PolicyKind::kCmcp, PageSizeClass::k4K, false, 1.0},
        FuzzParams{11, PolicyKind::kArc, PageSizeClass::k4K, false, 0.4}));

// Event keys pack (time << 11 | core) into 64 bits. A virtual time of 2^53
// cycles or more used to wrap to a small key, and the engine re-keyed the
// same wrapped key forever; it must abort naming the limit instead.
TEST(EngineDeathTest, VirtualTimePast2To53Aborts) {
  std::istringstream trace(
      "cmcp-trace v1\n"
      "cores 2\n"
      "pages 64\n"
      "core 0\n"
      "a 0 4 1 1 r 100\n"
      "c 18014398509481984\n"
      "a 4 4 1 1 r 100\n"
      "core 1\n"
      "a 8 4 1 1 r 100\n"
      "a 12 4 1 1 r 100\n");
  const auto workload = wl::TraceWorkload::parse(trace).trace;
  ASSERT_NE(workload, nullptr);
  SimulationConfig config;
  config.machine.num_cores = workload->num_cores();
  EXPECT_DEATH(run_simulation(config, *workload), "2\\^53 cycles");
}

}  // namespace
}  // namespace cmcp::core
