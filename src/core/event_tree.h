// The engine's event queue: a winner tree with one leaf per core.
//
// Leaves are padded to a power of two with kMaxKey ("no event"); each
// internal node holds the smaller of its two children, so the root is the
// smallest key. set() replays the leaf-to-root path with branchless
// std::min — a fixed log2(leaves) steps with no data-dependent branch, which
// a 4-ary heap's child selection cannot offer (docs/performance.md).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace cmcp::core {

class EventTree {
 public:
  static constexpr std::uint64_t kMaxKey = ~std::uint64_t{0};

  explicit EventTree(std::size_t leaves)
      : base_(std::bit_ceil(std::max<std::size_t>(leaves, 1))),
        nodes_(2 * base_, kMaxKey) {}

  /// Set leaf `leaf`'s key; kMaxKey removes it.
  void set(std::size_t leaf, std::uint64_t key) {
    std::size_t i = base_ + leaf;
    nodes_[i] = key;
    for (; i > 1; i >>= 1)
      nodes_[i >> 1] = std::min(nodes_[i], nodes_[i ^ 1]);
  }

  /// Smallest key, kMaxKey when every leaf is removed.
  std::uint64_t root() const { return nodes_[1]; }
  bool empty() const { return root() == kMaxKey; }

 private:
  std::size_t base_;                 ///< leaf count, a power of two
  std::vector<std::uint64_t> nodes_;  ///< [1] is the root, [base_ + i] leaf i
};

}  // namespace cmcp::core
