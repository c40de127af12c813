// Structural tests of the workload generators.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "workloads/access_stream.h"
#include "workloads/partition_util.h"
#include "workloads/synthetic.h"
#include "workloads/trace.h"
#include "workloads/workload_factory.h"

namespace cmcp::wl {
namespace {

/// Op's fields, in declaration order, as one comparable tuple.
auto fields(const Op& op) {
  return std::make_tuple(op.vpn, op.cycles, op.count, op.stride, op.repeat,
                         op.kind, op.write);
}

TEST(OpFactory, EachFactorySetsExactlyTheFieldsItNames) {
  // Designated initializers must follow declaration order, so reordering
  // Op's fields (it packs into 32 bytes) rewrites every factory: pin each
  // one field by field against a default Op.
  const Op base;
  EXPECT_EQ(fields(base), fields(Op::end()));
  EXPECT_EQ(base.kind, OpKind::kEnd);

  Op access = base;
  access.vpn = 0x1234567890;
  access.cycles = 77;
  access.count = 0x80000001u;
  access.stride = 0x80000003u;
  access.repeat = 0x8005;
  access.kind = OpKind::kAccess;
  access.write = true;
  EXPECT_EQ(fields(Op::access(0x1234567890, true, 0x80000001u, 0x8005, 77,
                              0x80000003u)),
            fields(access));
  Op plain_access = base;
  plain_access.vpn = 9;
  plain_access.kind = OpKind::kAccess;
  EXPECT_EQ(fields(Op::access(9)), fields(plain_access));

  Op compute = base;
  compute.cycles = 0xfedcba9876;
  compute.kind = OpKind::kCompute;
  EXPECT_EQ(fields(Op::compute(0xfedcba9876)), fields(compute));

  Op barrier = base;
  barrier.kind = OpKind::kBarrier;
  EXPECT_EQ(fields(Op::barrier()), fields(barrier));
}

TEST(JitteredBounds, MonotoneAndCovering) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto bounds = detail::jittered_bounds(1000, 8, 0.2, rng);
    ASSERT_EQ(bounds.size(), 9u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), 1000u);
    for (std::size_t i = 1; i < bounds.size(); ++i)
      EXPECT_GE(bounds[i], bounds[i - 1]);
  }
}

TEST(JitteredBounds, ZeroJitterIsExactBlocks) {
  Rng rng(5);
  const auto bounds = detail::jittered_bounds(800, 8, 0.0, rng);
  for (CoreId c = 0; c <= 8; ++c) EXPECT_EQ(bounds[c], c * 100u);
}

TEST(ExchangeRuns, PartitionCoversRegionExactlyOnce) {
  detail::ExchangeConfig cfg;
  cfg.phase_seed = 99;
  const std::uint64_t region = 1003;
  const CoreId cores = 7;
  const detail::ExchangePartition partition(region, cores, cfg);
  std::vector<unsigned> owners(region, 0);
  for (CoreId c = 0; c < cores; ++c) {
    for (const auto& [first, len] : partition.runs(c))
      for (std::uint64_t p = first; p < first + len; ++p) ++owners[p];
  }
  for (std::uint64_t p = 0; p < region; ++p)
    EXPECT_EQ(owners[p], 1u) << "page " << p;
}

TEST(ExchangeRuns, EverySegmentGoesToTheCoreExchangeOwnerNames) {
  // The one-pass partition hands each segment to exactly the core that
  // exchange_owner names, in sweep order, with adjacent segments merged.
  for (const CoreId cores : {1u, 2u, 7u, 56u}) {
    for (const std::uint64_t region : {1u, 15u, 16u, 17u, 1003u, 9000u}) {
      detail::ExchangeConfig cfg;
      cfg.segment_pages = 8;
      cfg.max_distance = 2;
      cfg.phase_seed = region * 31 + cores;
      const detail::ExchangePartition partition(region, cores, cfg);
      const std::uint64_t segments = (region + 7) / 8;
      std::vector<CoreId> owner(segments, kInvalidCore);
      for (CoreId c = 0; c < cores; ++c) {
        Vpn last_end = 0;
        bool first_run = true;
        for (const auto& [first, len] : partition.runs(c)) {
          ASSERT_GT(len, 0u);
          ASSERT_EQ(first % 8, 0u);
          if (!first_run) {
            EXPECT_GT(first, last_end) << "runs out of order or unmerged";
          }
          first_run = false;
          last_end = first + len;
          for (std::uint64_t seg = first / 8; seg * 8 < first + len; ++seg) {
            ASSERT_EQ(owner[seg], kInvalidCore) << "segment " << seg;
            owner[seg] = c;
          }
        }
      }
      for (std::uint64_t seg = 0; seg < segments; ++seg)
        EXPECT_EQ(owner[seg], detail::exchange_owner(seg, segments, cores, cfg))
            << cores << " cores, " << region << " pages, segment " << seg;
    }
  }
}

TEST(ExchangeRuns, SomeSegmentsAreDisplaced) {
  detail::ExchangeConfig cfg;
  cfg.phase_seed = 7;
  cfg.exchange_fraction = 0.3;
  std::uint64_t displaced = 0, total = 0;
  const std::uint64_t region = 6400;
  const CoreId cores = 8;
  const std::uint64_t block = region / cores;  // 800: cores divide region
  const detail::ExchangePartition partition(region, cores, cfg);
  for (CoreId c = 0; c < cores; ++c) {
    const std::uint64_t nominal_begin = c * block;
    const std::uint64_t nominal_end = nominal_begin + block;
    for (const auto& [first, len] : partition.runs(c)) {
      total += len;
      if (first + len <= nominal_begin || first >= nominal_end) displaced += len;
    }
  }
  EXPECT_EQ(total, region);
  EXPECT_GT(displaced, region / 10);
  EXPECT_LT(displaced, region / 2);
}

TEST(ExchangeRuns, DeterministicPerSeed) {
  detail::ExchangeConfig cfg;
  cfg.phase_seed = 3;
  const auto runs = [&] {
    const detail::ExchangePartition partition(1000, 8, cfg);
    const auto r = partition.runs(2);
    return std::vector<detail::PageRun>(r.begin(), r.end());
  };
  const auto a = runs();
  EXPECT_EQ(runs(), a);
  cfg.phase_seed = 4;
  EXPECT_NE(runs(), a);
}

/// FNV-1a 64 of a trace text.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

class PaperWorkloadTest : public ::testing::TestWithParam<PaperWorkload> {};

TEST_P(PaperWorkloadTest, StreamsAreWellFormed) {
  WorkloadParams params;
  params.cores = 8;
  params.scale = 0.1;
  const auto w = make_paper_workload(GetParam(), params);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->num_cores(), 8u);
  EXPECT_GT(w->footprint_base_pages(), 0u);

  std::uint64_t barriers0 = 0;
  for (CoreId c = 0; c < 8; ++c) {
    auto stream = w->make_stream(c);
    std::uint64_t ops = 0, barriers = 0;
    for (;;) {
      const Op op = stream->next();
      if (op.kind == OpKind::kEnd) break;
      ++ops;
      ASSERT_LT(ops, 10'000'000u) << "runaway stream";
      switch (op.kind) {
        case OpKind::kAccess:
          ASSERT_GT(op.count, 0u);
          ASSERT_GT(op.repeat, 0);
          // Every touched page inside the footprint.
          ASSERT_LT(op.vpn + static_cast<Vpn>(op.count - 1) * op.stride,
                    w->footprint_base_pages());
          break;
        case OpKind::kBarrier:
          ++barriers;
          break;
        default:
          break;
      }
    }
    EXPECT_GT(ops, 0u) << "core " << c;
    if (c == 0)
      barriers0 = barriers;
    else
      EXPECT_EQ(barriers, barriers0) << "barrier count mismatch on core " << c;
    // Exhausted stream keeps returning kEnd.
    EXPECT_EQ(stream->next().kind, OpKind::kEnd);
  }
}

TEST_P(PaperWorkloadTest, DeterministicForSameSeed) {
  WorkloadParams params;
  params.cores = 4;
  params.scale = 0.05;
  params.seed = 77;
  const auto a = make_paper_workload(GetParam(), params);
  const auto b = make_paper_workload(GetParam(), params);
  for (CoreId c = 0; c < 4; ++c) {
    auto sa = a->make_stream(c);
    auto sb = b->make_stream(c);
    for (;;) {
      const Op oa = sa->next();
      const Op ob = sb->next();
      ASSERT_EQ(oa.kind, ob.kind);
      ASSERT_EQ(oa.vpn, ob.vpn);
      ASSERT_EQ(oa.count, ob.count);
      if (oa.kind == OpKind::kEnd) break;
    }
  }
}

TEST_P(PaperWorkloadTest, BigSizeHasLargerFootprint) {
  WorkloadParams params;
  params.cores = 4;
  const auto small = make_paper_workload(GetParam(), params, WorkloadSize::kSmall);
  const auto big = make_paper_workload(GetParam(), params, WorkloadSize::kBig);
  EXPECT_GT(big->footprint_base_pages(), 2 * small->footprint_base_pages());
}

TEST_P(PaperWorkloadTest, ScheduleMatchesPinnedTraceHash) {
  // Byte-for-byte pin of each model's schedule at 8 cores and seed 1234:
  // the FNV-1a 64 hash of its write_trace text, in both sizes. A change to a
  // generator's shape or to its RNG draw order shows up here first.
  struct Pin {
    PaperWorkload workload;
    std::uint64_t small;
    std::uint64_t big;
  };
  constexpr Pin kPins[] = {
      {PaperWorkload::kBt, 0x1a966db447a25041ULL, 0x8677020dde1cbb6eULL},
      {PaperWorkload::kLu, 0x9d6415b93e404eebULL, 0x377d1b0e3b666f99ULL},
      {PaperWorkload::kCg, 0x1ea8c16006678054ULL, 0x936dddac644b218eULL},
      {PaperWorkload::kScale, 0x642354cef84f03e7ULL, 0x79a2717a5bbbc13dULL},
  };
  WorkloadParams params;
  params.cores = 8;
  params.seed = 1234;
  for (const Pin& pin : kPins) {
    if (pin.workload != GetParam()) continue;
    for (const WorkloadSize size : {WorkloadSize::kSmall, WorkloadSize::kBig}) {
      std::ostringstream trace;
      write_trace(*make_paper_workload(pin.workload, params, size), trace);
      EXPECT_EQ(fnv1a64(trace.str()),
                size == WorkloadSize::kSmall ? pin.small : pin.big)
          << size_suffix(size);
    }
  }
}

TEST_P(PaperWorkloadTest, ScheduleMatchesPinnedTraceHashAt14And56Cores) {
  // The same pin at the core counts of the multi-tenant and single-tenant
  // benchmark rows, on the default and the held-out seed. The constants
  // come from the last build that kept whole schedules in memory.
  struct Pin {
    CoreId cores;
    std::uint64_t seed;
    PaperWorkload workload;
    std::uint64_t small;
    std::uint64_t big;
  };
  constexpr Pin kPins[] = {
      {14, 1234, PaperWorkload::kBt, 0x31a5d10957db66c0ULL, 0xe19557163a0211a2ULL},
      {14, 1234, PaperWorkload::kLu, 0xdaef9242a9aa9db1ULL, 0xecec90f3be80c442ULL},
      {14, 1234, PaperWorkload::kCg, 0x64178d2b7300bbd4ULL, 0x8021c723836a82b8ULL},
      {14, 1234, PaperWorkload::kScale, 0x88fb804d663bfca4ULL, 0x6af1c0c6fdce4ab7ULL},
      {14, 4321, PaperWorkload::kBt, 0x5a0da7d1cf91e315ULL, 0xe245f372acb4d4eaULL},
      {14, 4321, PaperWorkload::kLu, 0x2f17fb84b2cce9ebULL, 0x300d099822608d8cULL},
      {14, 4321, PaperWorkload::kCg, 0xdd21d67393f4fb5fULL, 0x646325138b8df017ULL},
      {14, 4321, PaperWorkload::kScale, 0xf16e57486ee8c9d4ULL, 0x46c2e795eb6cb56dULL},
      {56, 1234, PaperWorkload::kBt, 0xa21b04920598910dULL, 0x25a2d13fae67a08eULL},
      {56, 1234, PaperWorkload::kLu, 0xf9c13d47dd71ed22ULL, 0x88642813090e76b4ULL},
      {56, 1234, PaperWorkload::kCg, 0x8cb7881e1259745aULL, 0x0e4a0f25a9fa2881ULL},
      {56, 1234, PaperWorkload::kScale, 0xc33d2bd46f9d5e6aULL, 0x416cc33bade38cfeULL},
      {56, 4321, PaperWorkload::kBt, 0x1900e2375ea3f238ULL, 0x1a6c1c1918f4f064ULL},
      {56, 4321, PaperWorkload::kLu, 0xe7a7b9e261f0edfcULL, 0x7f3dd75eaeea9903ULL},
      {56, 4321, PaperWorkload::kCg, 0x6aaff5e0fac7f208ULL, 0xbc5b90eb06c15614ULL},
      {56, 4321, PaperWorkload::kScale, 0x014ed577c5d48110ULL, 0x8986c9517f1efc1cULL},
  };
  for (const Pin& pin : kPins) {
    if (pin.workload != GetParam()) continue;
    WorkloadParams params;
    params.cores = pin.cores;
    params.seed = pin.seed;
    for (const WorkloadSize size : {WorkloadSize::kSmall, WorkloadSize::kBig}) {
      std::ostringstream trace;
      write_trace(*make_paper_workload(pin.workload, params, size), trace);
      EXPECT_EQ(fnv1a64(trace.str()),
                size == WorkloadSize::kSmall ? pin.small : pin.big)
          << pin.cores << " cores, seed " << pin.seed << ", "
          << size_suffix(size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperWorkloads, PaperWorkloadTest,
                         ::testing::ValuesIn(kAllPaperWorkloads),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// Streams replay: the simulator drains every core's stream interleaved, the
// benchmark drains the same workload again after a run, and a sweep reuses
// one workload for several runs, possibly from several threads.
class StreamReplayTest : public ::testing::TestWithParam<PaperWorkload> {
 protected:
  using Ops = std::vector<decltype(fields(Op{}))>;
  static constexpr CoreId kCores = 8;

  static std::unique_ptr<Workload> make() {
    WorkloadParams params;
    params.cores = kCores;
    params.scale = 0.2;
    params.seed = 4321;
    return make_paper_workload(GetParam(), params);
  }
  static Ops drain(const Workload& w, CoreId c) {
    Ops ops;
    const auto stream = w.make_stream(c);
    for (Op op = stream->next(); op.kind != OpKind::kEnd; op = stream->next())
      ops.push_back(fields(op));
    return ops;
  }
  /// Every core's ops from a fresh workload, one core after another.
  static std::vector<Ops> reference() {
    const auto w = make();
    std::vector<Ops> ops;
    for (CoreId c = 0; c < kCores; ++c) ops.push_back(drain(*w, c));
    return ops;
  }
};

TEST_P(StreamReplayTest, RoundRobinSequentialAndRepeatedDrainsAgree) {
  const std::vector<Ops> expected = reference();
  const auto w = make();

  // Round-robin: one op from each live stream in turn.
  std::vector<std::unique_ptr<AccessStream>> streams;
  for (CoreId c = 0; c < kCores; ++c) streams.push_back(w->make_stream(c));
  std::vector<Ops> interleaved(kCores);
  for (bool live = true; live;) {
    live = false;
    for (CoreId c = 0; c < kCores; ++c) {
      const Op op = streams[c]->next();
      if (op.kind == OpKind::kEnd) continue;
      interleaved[c].push_back(fields(op));
      live = true;
    }
  }
  EXPECT_EQ(interleaved, expected);

  // One core after another, on the workload already drained once.
  for (CoreId c = 0; c < kCores; ++c)
    EXPECT_EQ(drain(*w, c), expected[c]) << "core " << c;

  // The same core twice in a row.
  EXPECT_EQ(drain(*w, 3), expected[3]);
  EXPECT_EQ(drain(*w, 3), expected[3]);
}

TEST_P(StreamReplayTest, StreamsFromFourThreadsAgree) {
  const std::vector<Ops> expected = reference();
  const auto w = make();
  const Workload& shared = *w;
  std::vector<std::vector<Ops>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&shared, &got, t] {
      // Each thread starts at a different core so streams of one core are
      // made and drained concurrently.
      got[t].resize(kCores);
      for (CoreId i = 0; i < kCores; ++i) {
        const CoreId c = static_cast<CoreId>((i + 2 * t) % kCores);
        got[t][c] = drain(shared, c);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < got.size(); ++t)
    EXPECT_EQ(got[t], expected) << "thread " << t;
}

INSTANTIATE_TEST_SUITE_P(AllPaperWorkloads, StreamReplayTest,
                         ::testing::ValuesIn(kAllPaperWorkloads),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(WorkloadFactory, PaperFractionsMatchSection54) {
  EXPECT_DOUBLE_EQ(paper_memory_fraction(PaperWorkload::kBt), 0.64);
  EXPECT_DOUBLE_EQ(paper_memory_fraction(PaperWorkload::kLu), 0.66);
  EXPECT_DOUBLE_EQ(paper_memory_fraction(PaperWorkload::kCg), 0.37);
  EXPECT_DOUBLE_EQ(paper_memory_fraction(PaperWorkload::kScale), 0.50);
}

TEST(WorkloadFactory, BestPMatchesSection56Shape) {
  // "CG benefits the most from a low ratio, while in case of LU or SCALE
  // high ratio appears to work better."
  EXPECT_LT(paper_best_p(PaperWorkload::kCg), 0.3);
  EXPECT_GT(paper_best_p(PaperWorkload::kLu), 0.5);
  EXPECT_GT(paper_best_p(PaperWorkload::kScale), 0.5);
}

TEST(Adversarial, SharedRegionTouchedOnceThenPrivateRounds) {
  AdversarialParams params;
  params.base.cores = 4;
  params.dead_shared_pages = 64;
  params.private_pages_per_core = 16;
  params.rounds = 3;
  AdversarialWorkload w(params);
  EXPECT_EQ(w.footprint_base_pages(), 64u + 4 * 16);
  // Core 0's stream touches the shared region exactly once.
  auto stream = w.make_stream(0);
  std::uint64_t shared_touches = 0;
  for (;;) {
    const Op op = stream->next();
    if (op.kind == OpKind::kEnd) break;
    if (op.kind == OpKind::kAccess && op.vpn < 64) shared_touches += op.count;
  }
  EXPECT_EQ(shared_touches, 64u);
}

}  // namespace
}  // namespace cmcp::wl
