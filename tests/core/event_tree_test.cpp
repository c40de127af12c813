#include "core/event_tree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace cmcp::core {
namespace {

// Seeded random set/remove operations against a std::set reference of
// (key, leaf) pairs: after every operation root() is the smallest live key
// and empty() says whether any leaf holds one. The leaf counts cover one
// leaf, exact powers of two and the padding around the 56-core machine and
// kMaxCores-sized machines.
class EventTreeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EventTreeTest, RootAndEmptyMatchReference) {
  const std::size_t leaves = GetParam();
  EventTree tree(leaves);
  std::set<std::pair<std::uint64_t, std::size_t>> reference;
  std::vector<std::uint64_t> key(leaves, EventTree::kMaxKey);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root(), EventTree::kMaxKey);

  std::uint64_t state = 20140623 + leaves;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 0; i < 20000; ++i) {
    const std::size_t leaf = next() % leaves;
    if (key[leaf] != EventTree::kMaxKey) reference.erase({key[leaf], leaf});
    // One op in four removes the leaf; small keys make ties across leaves.
    key[leaf] = next() % 4 == 0 ? EventTree::kMaxKey : next() % 1000;
    if (key[leaf] != EventTree::kMaxKey) reference.insert({key[leaf], leaf});
    tree.set(leaf, key[leaf]);

    ASSERT_EQ(tree.empty(), reference.empty()) << "after op " << i;
    ASSERT_EQ(tree.root(), reference.empty() ? EventTree::kMaxKey
                                             : reference.begin()->first)
        << "after op " << i;
  }
  for (std::size_t leaf = 0; leaf < leaves; ++leaf)
    tree.set(leaf, EventTree::kMaxKey);
  EXPECT_TRUE(tree.empty());
}

INSTANTIATE_TEST_SUITE_P(LeafCounts, EventTreeTest,
                         ::testing::Values(1, 2, 55, 56, 57, 64, 1024, 2047));

}  // namespace
}  // namespace cmcp::core
