#include "bench_mode.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace cmcp::metrics {
namespace {

TEST(FastMode, FollowsEnvironment) {
  unsetenv("CMCP_BENCH_FAST");
  EXPECT_FALSE(fast_mode());
  EXPECT_EQ(paper_core_counts().size(), 7u);
  setenv("CMCP_BENCH_FAST", "1", 1);
  EXPECT_TRUE(fast_mode());
  EXPECT_LT(paper_core_counts().size(), 7u);
  unsetenv("CMCP_BENCH_FAST");
}

}  // namespace
}  // namespace cmcp::metrics
