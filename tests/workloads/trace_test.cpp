#include "workloads/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/simulation.h"
#include "workloads/workload_factory.h"

namespace cmcp::wl {
namespace {

/// parse() of input that must be well-formed.
std::unique_ptr<TraceWorkload> parse_ok(std::istream& in) {
  TraceParseResult parsed = TraceWorkload::parse(in);
  EXPECT_EQ(parsed.error, "");
  return std::move(parsed.trace);
}

std::unique_ptr<Workload> small_workload() {
  WorkloadParams params;
  params.cores = 4;
  params.scale = 0.05;
  return make_paper_workload(PaperWorkload::kScale, params);
}

TEST(Trace, RoundTripPreservesEveryOp) {
  const auto original = small_workload();
  std::stringstream buffer;
  write_trace(*original, buffer);
  const auto replay = parse_ok(buffer);

  ASSERT_EQ(replay->num_cores(), original->num_cores());
  EXPECT_EQ(replay->footprint_base_pages(), original->footprint_base_pages());
  for (CoreId c = 0; c < original->num_cores(); ++c) {
    auto a = original->make_stream(c);
    auto b = replay->make_stream(c);
    for (;;) {
      const Op oa = a->next();
      const Op ob = b->next();
      ASSERT_EQ(oa.kind, ob.kind) << "core " << c;
      if (oa.kind == OpKind::kEnd) break;
      ASSERT_EQ(oa.vpn, ob.vpn);
      ASSERT_EQ(oa.count, ob.count);
      ASSERT_EQ(oa.stride, ob.stride);
      ASSERT_EQ(oa.repeat, ob.repeat);
      ASSERT_EQ(oa.write, ob.write);
      ASSERT_EQ(oa.cycles, ob.cycles);
    }
  }
}

TEST(Trace, ReplayedSimulationBitIdentical) {
  const auto original = small_workload();
  std::stringstream buffer;
  write_trace(*original, buffer);
  const auto replay = parse_ok(buffer);

  core::SimulationConfig config;
  config.machine.num_cores = 4;
  config.memory_fraction = 0.5;
  const auto a = core::run_simulation(config, *original);
  const auto b = core::run_simulation(config, *replay);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.app_total.major_faults, b.app_total.major_faults);
  EXPECT_EQ(a.app_total.remote_invalidations_received,
            b.app_total.remote_invalidations_received);
}

TEST(Trace, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "cmcp-trace v1\n"
      "# a comment\n"
      "cores 1\n"
      "\n"
      "pages 10\n"
      "core 0\n"
      "a 3 2 1 1 w 100\n"
      "b\n");
  const auto trace = parse_ok(in);
  auto stream = trace->make_stream(0);
  EXPECT_EQ(stream->next().kind, OpKind::kAccess);
  EXPECT_EQ(stream->next().kind, OpKind::kBarrier);
  EXPECT_EQ(stream->next().kind, OpKind::kEnd);
}

TEST(TraceDeath, RejectsGarbage) {
  // Malformed input is a located diagnostic and no workload, not an abort.
  const struct {
    const char* text;
    const char* error;
  } kCases[] = {
      {"not a trace\n", "t:1: not a cmcp trace (missing header)"},
      {"cmcp-trace v1\npages 10\n", "t:2: trace declares no cores"},
      {"cmcp-trace v1\ncores 1\npages 5\na 1 1 1 1 r 0\n",
       "t:4: op before core line"},
      {"cmcp-trace v1\ncores 1\npages 5\ncore 0\nz nonsense\n",
       "t:5: unknown trace tag 'z'"},
      {"cmcp-trace v1\ncores 0\n", "t:2: cores must be in [1, 1087]"},
      {"cmcp-trace v1\ncores 1088\n", "t:2: cores must be in [1, 1087]"},
      {"cmcp-trace v1\ncores 1\ncore 0\na 0 1 1 1 r 0\n",
       "t:4: access before pages line"},
      {"cmcp-trace v1\ncores 1\npages 10\ncore 0\na 5 5 1 1 r 1\n"
       "a 5 6 1 1 r 1\n",
       "t:6: access range lies outside the declared pages"},
      {"cmcp-trace v1\ncores 1\npages 10\ncore 0\na 0 2 9 1 r 1\n"
       "a 0 2 10 1 r 1\n",
       "t:6: access range lies outside the declared pages"},
      {"cmcp-trace v1\ncores 1\npages 10\ncore 0\na 0 1 1 65535 r 1\n"
       "a 0 1 1 65536 r 1\n",
       "t:6: repeat must be in [1, 65535]"},
      {"cmcp-trace v1\ncores 1\npages 10\ncore 0\na 0 1 1 0 r 1\n",
       "t:5: repeat must be in [1, 65535]"},
      // The dense per-unit tables are sized from pages (trace.h).
      {"cmcp-trace v1\ncores 1\npages 999999999999999\ncore 0\n"
       "a 0 1 1 1 r 0\n",
       "t:3: pages must be in [1, 165191049] on 1 core"},
      {"cmcp-trace v1\ncores 1\npages 165191050\n",
       "t:3: pages must be in [1, 165191049] on 1 core"},
      // Either order of the cores and pages lines is checked.
      {"cmcp-trace v1\npages 31580642\ncores 56\n",
       "t:3: pages must be in [1, 31580641] on 56 cores"},
  };
  for (const auto& c : kCases) {
    std::stringstream in(c.text);
    const TraceParseResult parsed = TraceWorkload::parse(in, "t");
    EXPECT_EQ(parsed.trace, nullptr) << c.text;
    EXPECT_EQ(parsed.error, c.error) << c.text;
  }
}

TEST(Trace, LoadNamesAMissingFile) {
  const TraceParseResult parsed = TraceWorkload::load("/nonexistent/t.trace");
  EXPECT_EQ(parsed.trace, nullptr);
  EXPECT_EQ(parsed.error, "/nonexistent/t.trace: cannot open trace file");
}

}  // namespace
}  // namespace cmcp::wl
