#include "policy/fifo.h"

#include <gtest/gtest.h>

#include "testing/policy_harness.h"

namespace cmcp::policy {
namespace {

using testing::FakePolicyHost;
using testing::PageFactory;

TEST(Fifo, EvictsInInsertionOrder) {
  FifoPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& a = pages.make(1);
  auto& b = pages.make(2);
  auto& c = pages.make(3);
  policy.on_insert(a);
  policy.on_insert(b);
  policy.on_insert(c);

  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &a);
  policy.on_evict(a);
  EXPECT_EQ(policy.pick_victim(0, extra), &b);
  policy.on_evict(b);
  EXPECT_EQ(policy.pick_victim(0, extra), &c);
  EXPECT_EQ(extra, 0u);  // FIFO decisions are free
}

TEST(Fifo, PickDoesNotRemove) {
  FifoPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& a = pages.make(1);
  policy.on_insert(a);
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &a);
  EXPECT_EQ(policy.pick_victim(0, extra), &a);  // idempotent until on_evict
  EXPECT_EQ(policy.queued(), 1u);
}

TEST(Fifo, EvictFromMiddleKeepsOrder) {
  FifoPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& a = pages.make(1);
  auto& b = pages.make(2);
  auto& c = pages.make(3);
  policy.on_insert(a);
  policy.on_insert(b);
  policy.on_insert(c);
  policy.on_evict(b);  // e.g. explicit unmap of a mid-queue page
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &a);
  policy.on_evict(a);
  EXPECT_EQ(policy.pick_victim(0, extra), &c);
}

TEST(Fifo, NoScannerNoTicks) {
  FifoPolicy policy;
  EXPECT_FALSE(policy.wants_scanner());
  policy.on_tick(123);  // must be a harmless no-op
  EXPECT_EQ(policy.name(), "FIFO");
}

TEST(Fifo, CoreMapGrowthIsIgnored) {
  FifoPolicy policy;
  FakePolicyHost host(8, 4);
  PageFactory pages(host);
  auto& a = pages.make(1);
  auto& b = pages.make(2);
  policy.on_insert(a);
  policy.on_insert(b);
  host.set_core_map_count(a.unit, 7);
  policy.on_core_map_grow(a);  // FIFO does not reorder on sharing
  Cycles extra = 0;
  EXPECT_EQ(policy.pick_victim(0, extra), &a);
}

}  // namespace
}  // namespace cmcp::policy
