// google-benchmark microbenchmarks of the hot data structures: the fault
// path executes these operations millions of times per simulated second, so
// their real-world cost matters for simulator throughput.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "mm/page_table.h"
#include "policy/cmcp.h"
#include "policy/fifo.h"
#include "policy/lru_approx.h"
#include "sim/tlb.h"
#include "testing/policy_harness.h"

namespace cmcp {
namespace {

// Unit-id space for benchmarks that stream fresh units. The TLB, the page
// tables and the registry are direct-indexed by unit and sized once to this
// space, so streamed ids wrap around it. A wrapped id returns long after it
// was unmapped/evicted (resident sets here are <= 4096 units), so ids never
// collide.
constexpr UnitIdx kUnitSpace = 1u << 16;

void BM_TlbLookupHit(benchmark::State& state) {
  sim::Tlb tlb(64);
  tlb.size_units(64);
  for (UnitIdx u = 0; u < 64; ++u) tlb.insert(u);
  UnitIdx u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(u));
    u = (u + 1) % 64;
  }
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbMissInsertEvict(benchmark::State& state) {
  sim::Tlb tlb(64);
  tlb.size_units(kUnitSpace);
  UnitIdx u = 0;
  for (auto _ : state) {
    tlb.insert(u);
    u = (u + 1) % kUnitSpace;
  }
}
BENCHMARK(BM_TlbMissInsertEvict);

void BM_PsptMapUnmap(benchmark::State& state) {
  const CoreId cores = static_cast<CoreId>(state.range(0));
  mm::PageTable pt(PageTableKind::kPspt, 0, cores, kUnitSpace);
  UnitIdx u = 0;
  for (auto _ : state) {
    for (CoreId c = 0; c < cores; ++c) pt.map(c, u);
    benchmark::DoNotOptimize(pt.core_map_count(u));
    pt.unmap_all(u);
    u = (u + 1) % kUnitSpace;
  }
}
BENCHMARK(BM_PsptMapUnmap)->Arg(1)->Arg(4)->Arg(16)->Arg(56);

void BM_RegularMapUnmap(benchmark::State& state) {
  mm::PageTable pt(PageTableKind::kRegular, 0, 56, kUnitSpace);
  UnitIdx u = 0;
  for (auto _ : state) {
    pt.map(0, u);
    pt.unmap_all(u);
    u = (u + 1) % kUnitSpace;
  }
}
BENCHMARK(BM_RegularMapUnmap);

void BM_CoreMaskForEach(benchmark::State& state) {
  const CoreMask mask = CoreMask::first_n(static_cast<CoreId>(state.range(0)));
  for (auto _ : state) {
    unsigned sum = 0;
    mask.for_each([&](CoreId c) { sum += c; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CoreMaskForEach)->Arg(2)->Arg(56);

void BM_FifoInsertEvict(benchmark::State& state) {
  policy::FifoPolicy policy;
  testing::FakePolicyHost host(1024, 56);
  testing::PageFactory pages(host, kUnitSpace);
  std::vector<mm::ResidentPage*> resident;
  for (UnitIdx u = 0; u < 1024; ++u) {
    resident.push_back(&pages.make(u));
    policy.on_insert(*resident.back());
  }
  UnitIdx next = 1024;
  for (auto _ : state) {
    Cycles extra = 0;
    mm::ResidentPage* victim = policy.pick_victim(0, extra);
    policy.on_evict(*victim);
    pages.erase(*victim);
    auto& pg = pages.make(next);
    next = (next + 1) % kUnitSpace;
    policy.on_insert(pg);
  }
}
BENCHMARK(BM_FifoInsertEvict);

void BM_CmcpInsertEvict(benchmark::State& state) {
  testing::FakePolicyHost host(1024, 56);
  policy::CmcpConfig config;
  config.p = 0.4;
  policy::CmcpPolicy policy(host, config);
  testing::PageFactory pages(host, kUnitSpace);
  Rng rng(1);
  for (UnitIdx u = 0; u < 1024; ++u)
    policy.on_insert(pages.make(u, 1 + rng.next_below(8)));
  UnitIdx next = 1024;
  for (auto _ : state) {
    Cycles extra = 0;
    mm::ResidentPage* victim = policy.pick_victim(0, extra);
    policy.on_evict(*victim);
    pages.erase(*victim);
    auto& pg = pages.make(next, 1 + rng.next_below(8));
    next = (next + 1) % kUnitSpace;
    policy.on_insert(pg);
  }
}
BENCHMARK(BM_CmcpInsertEvict);

void BM_CmcpAgingTick(benchmark::State& state) {
  testing::FakePolicyHost host(4096, 56);
  policy::CmcpConfig config;
  config.p = 1.0;
  config.age_limit_ticks = 4;
  policy::CmcpPolicy policy(host, config);
  testing::PageFactory pages(host, kUnitSpace);
  Rng rng(2);
  for (UnitIdx u = 0; u < 4096; ++u)
    policy.on_insert(pages.make(u, 1 + rng.next_below(8)));
  Cycles tick = 0;
  for (auto _ : state) policy.on_tick(tick++);
}
BENCHMARK(BM_CmcpAgingTick);

void BM_LruScanEvent(benchmark::State& state) {
  policy::LruApproxPolicy policy;
  testing::FakePolicyHost host(1024, 56);
  testing::PageFactory pages(host, kUnitSpace);
  std::vector<mm::ResidentPage*> resident;
  for (UnitIdx u = 0; u < 1024; ++u) {
    resident.push_back(&pages.make(u));
    policy.on_insert(*resident.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    policy.on_scan(*resident[i % resident.size()], (i & 3) != 0);
    ++i;
  }
}
BENCHMARK(BM_LruScanEvent);

}  // namespace
}  // namespace cmcp

BENCHMARK_MAIN();
