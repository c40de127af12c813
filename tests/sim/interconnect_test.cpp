#include "sim/interconnect.h"

#include <gtest/gtest.h>

namespace cmcp::sim {
namespace {

class InterconnectTest : public ::testing::Test {
 protected:
  CostModel cost;
  Interconnect net{cost};
};

TEST_F(InterconnectTest, ZeroTargetsIsFree) {
  const ShootdownTiming t = net.shootdown(100, 0, 1);
  EXPECT_EQ(t.initiator_total(), 0u);
  EXPECT_EQ(net.slot_busy_until(), 0u);
}

TEST_F(InterconnectTest, SingleShootdownCostComposition) {
  const ShootdownTiming t = net.shootdown(0, 3, 2);
  EXPECT_EQ(t.lock_wait, 0u);
  EXPECT_EQ(t.initiate, cost.ipi_initiate + 3 * cost.ipi_per_target);
  EXPECT_EQ(t.receiver_cost, cost.ipi_receive + 2 * cost.invlpg);
  EXPECT_EQ(t.ack_wait, t.receiver_cost);
  EXPECT_EQ(t.initiator_total(), t.initiate + t.ack_wait);
}

TEST_F(InterconnectTest, InitiatorCostGrowsWithTargetCount) {
  // The heart of the paper's scaling argument: shooting down 55 cores costs
  // far more than shooting down 1.
  Interconnect a(cost), b(cost);
  const Cycles narrow = a.shootdown(0, 1, 1).initiator_total();
  const Cycles wide = b.shootdown(0, 55, 1).initiator_total();
  EXPECT_GT(wide, narrow + 50 * cost.ipi_per_target);
}

TEST_F(InterconnectTest, ConcurrentShootdownsConvoyOnSlot) {
  const ShootdownTiming first = net.shootdown(0, 4, 1);
  EXPECT_EQ(first.lock_wait, 0u);
  const Cycles hold = cost.inval_slot_hold + first.initiate;
  EXPECT_EQ(net.slot_busy_until(), hold);
  // A second shootdown issued at the same instant waits for the slot.
  const ShootdownTiming second = net.shootdown(0, 4, 1);
  EXPECT_EQ(second.lock_wait, hold);
}

TEST_F(InterconnectTest, SlotFreeAfterHoldExpires) {
  net.shootdown(0, 4, 1);
  const ShootdownTiming later = net.shootdown(net.slot_busy_until(), 4, 1);
  EXPECT_EQ(later.lock_wait, 0u);
}

TEST_F(InterconnectTest, WideShootdownsHoldSlotLonger) {
  // Regular page tables shoot down every core; their slot occupancy per
  // fault dwarfs PSPT's — the mechanism behind the >24-core collapse.
  Interconnect pspt(cost), regular(cost);
  pspt.shootdown(0, 1, 1);
  regular.shootdown(0, 55, 1);
  EXPECT_GT(regular.slot_busy_until(), pspt.slot_busy_until());
  EXPECT_EQ(regular.slot_busy_until() - pspt.slot_busy_until(),
            54 * cost.ipi_per_target);
}

TEST_F(InterconnectTest, CountsShootdowns) {
  // Machine counts shootdowns (CoreCounters::shootdowns_initiated); here a
  // shootdown with targets pays an initiation and takes the slot, and one
  // without targets does neither.
  const ShootdownTiming first = net.shootdown(0, 1, 1);
  const ShootdownTiming second = net.shootdown(0, 2, 1);
  const Cycles busy = net.slot_busy_until();
  const ShootdownTiming none = net.shootdown(0, 0, 1);
  EXPECT_GT(first.initiate, 0u);
  EXPECT_GT(second.initiate, 0u);
  EXPECT_EQ(second.lock_wait, cost.inval_slot_hold + first.initiate);
  EXPECT_EQ(none.initiator_total(), 0u);
  EXPECT_EQ(none.receiver_cost, 0u);
  EXPECT_EQ(net.slot_busy_until(), busy);
}

TEST_F(InterconnectTest, BacklogAccumulatesUnderBurst) {
  // N simultaneous shootdowns: the k-th waits ~k slot holds. This is the
  // queueing behaviour that produced the paper's 8x lock-cycle growth.
  Cycles prev_wait = 0;
  for (int i = 0; i < 10; ++i) {
    const ShootdownTiming t = net.shootdown(0, 2, 1);
    EXPECT_GE(t.lock_wait, prev_wait);
    prev_wait = t.lock_wait;
  }
  EXPECT_GT(prev_wait, 8 * cost.inval_slot_hold);
}

}  // namespace
}  // namespace cmcp::sim
