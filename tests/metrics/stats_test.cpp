#include "metrics/stats.h"

#include <gtest/gtest.h>

#include "metrics/counters.h"

namespace cmcp::metrics {
namespace {

TEST(CyclesToSeconds, UsesModelClock) {
  // The 5110P's 1.053 GHz: 1.053e9 cycles are one second.
  EXPECT_DOUBLE_EQ(cycles_to_seconds(1'053'000'000), 1.0);
  EXPECT_DOUBLE_EQ(cycles_to_seconds(2'106'000'000), 2.0);
}

TEST(CoreCounters, AccumulationSumsEveryField) {
  CoreCounters a, b;
  a.accesses = 1;
  a.dtlb_misses = 2;
  a.major_faults = 3;
  a.minor_faults = 4;
  a.remote_invalidations_received = 5;
  a.cycles_compute = 6;
  a.pcie_bytes_in = 7;
  b = a;
  b += a;
  EXPECT_EQ(b.accesses, 2u);
  EXPECT_EQ(b.dtlb_misses, 4u);
  EXPECT_EQ(b.major_faults, 6u);
  EXPECT_EQ(b.minor_faults, 8u);
  EXPECT_EQ(b.remote_invalidations_received, 10u);
  EXPECT_EQ(b.cycles_compute, 12u);
  EXPECT_EQ(b.pcie_bytes_in, 14u);
}

}  // namespace
}  // namespace cmcp::metrics
