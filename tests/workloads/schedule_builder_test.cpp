#include "workloads/schedule_builder.h"

#include <gtest/gtest.h>

namespace cmcp::wl {
namespace {

std::vector<Op> drain(AccessStream& stream) {
  std::vector<Op> ops;
  for (;;) {
    const Op op = stream.next();
    if (op.kind == OpKind::kEnd) break;
    ops.push_back(op);
  }
  return ops;
}

/// A plan whose phases are fixed per-core op lists (barriers excluded).
class ListPlan final : public PhasePlan {
 public:
  explicit ListPlan(std::vector<std::vector<std::vector<Op>>> phases)
      : phases_(std::move(phases)) {}

  std::uint32_t phases() const override {
    return static_cast<std::uint32_t>(phases_.size());
  }
  std::uint64_t footprint_base_pages() const override { return 0; }
  void emit(std::uint32_t phase, CoreId core,
            std::vector<Op>& out) const override {
    const auto& ops = phases_[phase][core];
    out.insert(out.end(), ops.begin(), ops.end());
  }

 private:
  std::vector<std::vector<std::vector<Op>>> phases_;  ///< [phase][core]
};

TEST(ScheduleBuilder, TouchCarriesComputePerPage) {
  std::vector<Op> ops;
  ScheduleBuilder sb(/*compute_per_page=*/500, ops);
  sb.touch(10, 4, /*write=*/true, /*repeat=*/2);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, OpKind::kAccess);
  EXPECT_EQ(ops[0].vpn, 10u);
  EXPECT_EQ(ops[0].count, 4u);
  EXPECT_EQ(ops[0].repeat, 2);
  EXPECT_TRUE(ops[0].write);
  EXPECT_EQ(ops[0].cycles, 500u * 2);  // per-page compute scales with repeat
}

TEST(ScheduleBuilder, ZeroCountTouchIsDropped) {
  std::vector<Op> ops;
  ScheduleBuilder sb(100, ops);
  sb.touch(0, 0, false);
  EXPECT_TRUE(ops.empty());
}

TEST(ScheduleBuilder, TouchPageVariants) {
  std::vector<Op> ops;
  ScheduleBuilder sb(700, ops);
  sb.touch_page_compute(5, false);                // standard compute
  sb.touch_page_compute(6, true, /*repeat=*/3);  // scales with repeat
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].count, 1u);
  EXPECT_EQ(ops[0].cycles, 700u);
  EXPECT_FALSE(ops[0].write);
  EXPECT_EQ(ops[1].repeat, 3);
  EXPECT_EQ(ops[1].cycles, 3u * 700);
  EXPECT_TRUE(ops[1].write);
}

TEST(ScheduleBuilderDeath, CountOrRepeatTooWideAborts) {
  std::vector<Op> ops;
  ScheduleBuilder sb(1, ops);
  sb.touch(0, 0xffffffffu, false, 0xffff);  // the widest that fit
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].count, 0xffffffffu);
  EXPECT_EQ(ops[0].repeat, 0xffff);
  EXPECT_DEATH(sb.touch(0, 0x100000000ULL, false), "check failed");
  EXPECT_DEATH(sb.touch(0, 1, false, 0x10000), "check failed");
}

TEST(ScheduleBuilder, BarrierAllReachesEveryCore) {
  // Core 1 alone has ops in the phase; every core's stream still ends it
  // with the phase's barrier.
  const auto plan = std::make_shared<const ListPlan>(
      std::vector<std::vector<std::vector<Op>>>{
          {{}, {Op::access(0)}, {}}});
  for (CoreId c = 0; c < 3; ++c) {
    PhaseStream stream(plan, c);
    const auto ops = drain(stream);
    ASSERT_FALSE(ops.empty());
    EXPECT_EQ(ops.back().kind, OpKind::kBarrier) << "core " << c;
    EXPECT_EQ(ops.size(), c == 1 ? 2u : 1u) << "core " << c;
  }
}

TEST(ScheduleBuilder, PerCoreSchedulesIndependent) {
  const auto plan = std::make_shared<const ListPlan>(
      std::vector<std::vector<std::vector<Op>>>{
          {{Op::access(1), Op::access(2)}, {Op::access(3)}},
          {{}, {Op::compute(4)}}});
  PhaseStream s0(plan, 0);
  PhaseStream s1(plan, 1);
  const auto ops0 = drain(s0);
  const auto ops1 = drain(s1);
  ASSERT_EQ(ops0.size(), 4u);  // two accesses, two barriers
  EXPECT_EQ(ops0[1].vpn, 2u);
  EXPECT_EQ(ops0[2].kind, OpKind::kBarrier);
  ASSERT_EQ(ops1.size(), 4u);  // access, barrier, compute, barrier
  EXPECT_EQ(ops1[0].vpn, 3u);
  EXPECT_EQ(ops1[2].kind, OpKind::kCompute);
}

TEST(VectorStream, ExhaustionIsSticky) {
  auto ops = std::make_shared<const std::vector<Op>>(
      std::vector<Op>{Op::compute(1)});
  VectorStream stream(ops);
  EXPECT_EQ(stream.next().kind, OpKind::kCompute);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(stream.next().kind, OpKind::kEnd);
}

TEST(PhaseStream, ExhaustionIsSticky) {
  const auto plan = std::make_shared<const ListPlan>(
      std::vector<std::vector<std::vector<Op>>>{{{Op::compute(1)}}});
  PhaseStream stream(plan, 0);
  EXPECT_EQ(stream.next().kind, OpKind::kCompute);
  EXPECT_EQ(stream.next().kind, OpKind::kBarrier);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(stream.next().kind, OpKind::kEnd);
}

}  // namespace
}  // namespace cmcp::wl
