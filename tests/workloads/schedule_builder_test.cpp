#include "workloads/schedule_builder.h"

#include <gtest/gtest.h>

namespace cmcp::wl {
namespace {

std::vector<Op> drain(std::shared_ptr<const std::vector<Op>> schedule) {
  VectorStream stream(std::move(schedule));
  std::vector<Op> ops;
  for (;;) {
    const Op op = stream.next();
    if (op.kind == OpKind::kEnd) break;
    ops.push_back(op);
  }
  return ops;
}

TEST(ScheduleBuilder, TouchCarriesComputePerPage) {
  ScheduleBuilder sb(1, /*compute_per_page=*/500);
  sb.touch(0, 10, 4, /*write=*/true, /*repeat=*/2);
  const auto ops = drain(sb.finish()[0]);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, OpKind::kAccess);
  EXPECT_EQ(ops[0].vpn, 10u);
  EXPECT_EQ(ops[0].count, 4u);
  EXPECT_EQ(ops[0].repeat, 2);
  EXPECT_TRUE(ops[0].write);
  EXPECT_EQ(ops[0].cycles, 500u * 2);  // per-page compute scales with repeat
}

TEST(ScheduleBuilder, ZeroCountTouchIsDropped) {
  ScheduleBuilder sb(1, 100);
  sb.touch(0, 0, 0, false);
  EXPECT_TRUE(drain(sb.finish()[0]).empty());
}

TEST(ScheduleBuilder, TouchPageVariants) {
  ScheduleBuilder sb(1, 700);
  sb.touch_page_compute(0, 5, false);                // standard compute
  sb.touch_page_compute(0, 6, true, /*repeat=*/3);  // scales with repeat
  const auto ops = drain(sb.finish()[0]);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].count, 1u);
  EXPECT_EQ(ops[0].cycles, 700u);
  EXPECT_FALSE(ops[0].write);
  EXPECT_EQ(ops[1].repeat, 3);
  EXPECT_EQ(ops[1].cycles, 3u * 700);
  EXPECT_TRUE(ops[1].write);
}

TEST(ScheduleBuilder, BarrierAllReachesEveryCore) {
  ScheduleBuilder sb(3, 0);
  sb.touch_page_compute(1, 0, false);
  sb.barrier_all();
  auto schedules = sb.finish();
  for (CoreId c = 0; c < 3; ++c) {
    const auto ops = drain(schedules[c]);
    ASSERT_FALSE(ops.empty());
    EXPECT_EQ(ops.back().kind, OpKind::kBarrier) << "core " << c;
  }
}

TEST(ScheduleBuilder, PerCoreSchedulesIndependent) {
  ScheduleBuilder sb(2, 0);
  sb.touch_page_compute(0, 1, false);
  sb.touch_page_compute(0, 2, false);
  sb.touch_page_compute(1, 3, false);
  auto schedules = sb.finish();
  EXPECT_EQ(drain(schedules[0]).size(), 2u);
  EXPECT_EQ(drain(schedules[1]).size(), 1u);
}

TEST(VectorStream, ExhaustionIsSticky) {
  auto ops = std::make_shared<const std::vector<Op>>(
      std::vector<Op>{Op::compute(1)});
  VectorStream stream(ops);
  EXPECT_EQ(stream.next().kind, OpKind::kCompute);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(stream.next().kind, OpKind::kEnd);
}

}  // namespace
}  // namespace cmcp::wl
