#include "common/core_mask.h"

#include <gtest/gtest.h>

#include <array>
#include <bitset>
#include <cstdint>
#include <random>
#include <vector>

namespace cmcp {
namespace {

TEST(CoreMask, StartsEmpty) {
  CoreMask m;
  EXPECT_TRUE(m.none());
  EXPECT_FALSE(m.any());
  EXPECT_EQ(m.count(), 0u);
}

TEST(CoreMask, SetTestClear) {
  CoreMask m;
  m.set(0);
  m.set(63);
  m.set(64);  // crosses the word boundary
  m.set(255);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(63));
  EXPECT_TRUE(m.test(64));
  EXPECT_TRUE(m.test(255));
  EXPECT_FALSE(m.test(1));
  EXPECT_EQ(m.count(), 4u);
  m.clear(63);
  EXPECT_FALSE(m.test(63));
  EXPECT_EQ(m.count(), 3u);
}

TEST(CoreMask, SetIsIdempotent) {
  CoreMask m;
  m.set(5);
  m.set(5);
  EXPECT_EQ(m.count(), 1u);
}

TEST(CoreMask, ForEachAscending) {
  CoreMask m;
  m.set(200);
  m.set(3);
  m.set(64);
  std::vector<CoreId> seen;
  m.for_each([&](CoreId c) { seen.push_back(c); });
  EXPECT_EQ(seen, (std::vector<CoreId>{3, 64, 200}));
}

TEST(CoreMask, FirstN) {
  const CoreMask m = CoreMask::first_n(56);
  EXPECT_EQ(m.count(), 56u);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(55));
  EXPECT_FALSE(m.test(56));
}

TEST(CoreMask, FirstNZero) {
  EXPECT_TRUE(CoreMask::first_n(0).none());
}

TEST(CoreMask, Equality) {
  CoreMask a, b;
  a.set(7);
  b.set(7);
  EXPECT_EQ(a, b);
  b.set(8);
  EXPECT_NE(a, b);
}

TEST(CoreMask, UnionAndIntersection) {
  CoreMask a, b;
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  const CoreMask u = a | b;
  EXPECT_EQ(u.count(), 3u);
  EXPECT_TRUE(u.test(1) && u.test(2) && u.test(3));
  const CoreMask i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(2));
}

TEST(CoreMask, ResetClearsEverything) {
  CoreMask m = CoreMask::first_n(100);
  m.reset();
  EXPECT_TRUE(m.none());
}

TEST(CoreMask, EmptyMaskIteratesNothing) {
  CoreMask m;
  unsigned calls = 0;
  m.for_each([&](CoreId) { ++calls; });
  EXPECT_EQ(calls, 0u);
  // A set-then-cleared mask is indistinguishable from a fresh one.
  m.set(17);
  m.clear(17);
  EXPECT_TRUE(m.none());
  m.for_each([&](CoreId) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(m, CoreMask{});
}

TEST(CoreMask, Full64CoreMask) {
  // A full first word (the common 56-64 core Phi configs) must not bleed
  // into the second word or lose its boundary bits.
  const CoreMask m = CoreMask::first_n(64);
  EXPECT_EQ(m.count(), 64u);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(63));
  EXPECT_FALSE(m.test(64));
  std::vector<CoreId> seen;
  m.for_each([&](CoreId c) { seen.push_back(c); });
  ASSERT_EQ(seen.size(), 64u);
  EXPECT_EQ(seen.front(), 0u);
  EXPECT_EQ(seen.back(), 63u);
}

TEST(CoreMask, FullCapacityMask) {
  const CoreMask m = CoreMask::first_n(CoreMask::kMaxCores);
  EXPECT_EQ(m.count(), CoreMask::kMaxCores);
  EXPECT_TRUE(m.test(CoreMask::kMaxCores - 1));
  unsigned calls = 0;
  CoreId prev = 0;
  bool first = true;
  m.for_each([&](CoreId c) {
    if (!first) {
      EXPECT_EQ(c, prev + 1);
    }
    prev = c;
    first = false;
    ++calls;
  });
  EXPECT_EQ(calls, CoreMask::kMaxCores);
}

TEST(CoreMask, ForEachAscendingAcrossAllWordBoundaries) {
  // One bit in each 64-bit word, plus both edges of a boundary.
  CoreMask m;
  const std::vector<CoreId> cores = {0, 63, 64, 127, 128, 191, 192, 255};
  for (const CoreId c : cores) m.set(c);
  std::vector<CoreId> seen;
  m.for_each([&](CoreId c) { seen.push_back(c); });
  EXPECT_EQ(seen, cores);  // strictly ascending, exactly the set bits
}

TEST(CoreMask, FirstSet) {
  CoreMask m;
  EXPECT_EQ(m.first_set(), CoreMask::kMaxCores);
  m.set(70);
  m.set(1030);
  EXPECT_EQ(m.first_set(), 70u);
  EXPECT_EQ(m.first_set(70), 70u);
  EXPECT_EQ(m.first_set(71), 1030u);
  EXPECT_EQ(m.first_set(1031), CoreMask::kMaxCores);
  m.clear(70);  // the live bound stays; the word reads clear
  EXPECT_EQ(m.first_set(), 1030u);
}

TEST(CoreMask, ClearOnEmptyMaskIsHarmless) {
  CoreMask m;
  m.clear(42);
  EXPECT_TRUE(m.none());
  EXPECT_EQ(m.count(), 0u);
}

// --- differential test against std::bitset -------------------------------

using Reference = std::bitset<CoreMask::kMaxCores>;

std::vector<CoreId> bits_of(const Reference& ref) {
  std::vector<CoreId> out;
  for (CoreId c = 0; c < CoreMask::kMaxCores; ++c)
    if (ref[c]) out.push_back(c);
  return out;
}

/// Highest non-zero word of `ref`, or -1 when it is empty.
int top_word(const Reference& ref) {
  for (int c = static_cast<int>(CoreMask::kMaxCores) - 1; c >= 0; --c)
    if (ref[static_cast<std::size_t>(c)]) return c / 64;
  return -1;
}

/// The same bits built by set() alone: its live bound is exact, so ==
/// against it checks that equality ignores a stale bound.
CoreMask rebuilt(const Reference& ref) {
  CoreMask m;
  for (const CoreId c : bits_of(ref)) m.set(c);
  return m;
}

void expect_matches(const CoreMask& m, const Reference& ref, int step) {
  SCOPED_TRACE(step);
  EXPECT_EQ(m.count(), ref.count());
  EXPECT_EQ(m.any(), ref.any());
  EXPECT_EQ(m.none(), ref.none());
  std::vector<CoreId> seen;
  m.for_each([&](CoreId c) { seen.push_back(c); });
  EXPECT_EQ(seen, bits_of(ref));
  EXPECT_TRUE(m == rebuilt(ref));
  EXPECT_EQ(m == CoreMask{}, ref.none());
  // Point reads see every word, including those past the live bound,
  // which a mask never writes: they must read as clear.
  bool words_match = true;
  for (std::size_t wi = 0; wi < CoreMask::kWords; ++wi) {
    std::uint64_t want = 0;
    for (CoreId b = 0; b < 64; ++b)
      if (ref[wi * 64 + b]) want |= std::uint64_t{1} << b;
    words_match = words_match && m.word(wi) == want;
  }
  EXPECT_TRUE(words_match);
  bool tests_match = true;
  for (CoreId c = 0; c < CoreMask::kMaxCores; ++c)
    tests_match = tests_match && m.test(c) == ref[c];
  EXPECT_TRUE(tests_match);
  for (const CoreId from : {0u, 1u, 63u, 64u, 65u, 127u, 512u, 1023u, 1024u,
                            1087u, CoreMask::kMaxCores}) {
    CoreId want = from;
    while (want < CoreMask::kMaxCores && !ref[want]) ++want;
    EXPECT_EQ(m.first_set(from), want) << "from " << from;
  }
}

TEST(CoreMask, MatchesBitsetUnderRandomOperations) {
  constexpr std::size_t kWords = CoreMask::kWords;
  std::mt19937_64 rng(20140623);
  const auto below = [&](std::uint64_t n) { return rng() % n; };
  std::array<CoreMask, 2> masks;
  std::array<Reference, 2> refs;
  bool cleared_top_word = false;
  bool zeroed_a_word = false;
  bool filled_every_word = false;

  for (int step = 0; step < 4000; ++step) {
    const std::size_t i = below(2);
    CoreMask& m = masks[i];
    Reference& ref = refs[i];
    const int top_before = top_word(ref);
    switch (below(9)) {
      case 0: {
        const auto c = static_cast<CoreId>(below(CoreMask::kMaxCores));
        m.set(c);
        ref.set(c);
        break;
      }
      case 1: {  // clear a set bit when there is one
        const std::vector<CoreId> bits = bits_of(ref);
        const CoreId c = bits.empty()
                             ? static_cast<CoreId>(below(CoreMask::kMaxCores))
                             : bits[below(bits.size())];
        m.clear(c);
        ref.reset(c);
        break;
      }
      case 2: {  // set_word with a random, all-zero or all-one word
        const std::size_t wi = below(kWords);
        const std::uint64_t roll = below(6);
        const std::uint64_t w =
            roll < 2 ? 0 : roll == 2 ? ~std::uint64_t{0} : rng();
        m.set_word(wi, w);
        for (CoreId b = 0; b < 64; ++b) ref[wi * 64 + b] = ((w >> b) & 1) != 0;
        if (w == 0) zeroed_a_word = true;
        break;
      }
      case 3:
        m = m | masks[1 - i];
        ref |= refs[1 - i];
        break;
      case 4:
        m = m & masks[1 - i];
        ref &= refs[1 - i];
        break;
      case 5:
        if (below(4) == 0) {
          m.reset();
          ref.reset();
        }
        break;
      case 6: {  // copy
        const CoreMask copy = masks[1 - i];
        m = copy;
        ref = refs[1 - i];
        break;
      }
      case 7: {
        const auto n = static_cast<CoreId>(below(CoreMask::kMaxCores + 1));
        m = CoreMask::first_n(n);
        ref.reset();
        for (CoreId c = 0; c < n; ++c) ref.set(c);
        break;
      }
      case 8:  // clear every bit of the highest live word, one by one
        if (top_before >= 0)
          for (CoreId b = 0; b < 64; ++b) {
            const CoreId c = static_cast<CoreId>(top_before) * 64 + b;
            m.clear(c);
            ref.reset(c);
          }
        break;
    }
    if (top_word(ref) < top_before) cleared_top_word = true;
    // More bits than 16 words hold: every one of the 17 is non-zero.
    if (ref.count() > (kWords - 1) * 64) filled_every_word = true;
    expect_matches(masks[0], refs[0], step);
    expect_matches(masks[1], refs[1], step);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_TRUE(cleared_top_word);
  EXPECT_TRUE(zeroed_a_word);
  EXPECT_TRUE(filled_every_word);
}

TEST(CoreMaskDeath, OutOfRangeAborts) {
  CoreMask m;
  EXPECT_DEATH(m.set(CoreMask::kMaxCores), "core < kMaxCores");
}

}  // namespace
}  // namespace cmcp
