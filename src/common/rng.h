// Deterministic PRNG (xoshiro256**) used by workload generators and the
// RANDOM baseline policy. std::mt19937_64 is avoided so seeds reproduce the
// same streams across standard library implementations.
#pragma once

#include <cstdint>

namespace cmcp {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the state from a single 64-bit seed (splitmix64 expansion).
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform value in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform value in [lo, hi] inclusive.
  std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t s_[4];
};

}  // namespace cmcp
