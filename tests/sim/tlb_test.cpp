#include "sim/tlb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <ostream>
#include <vector>

namespace cmcp::sim {
namespace {

TEST(Tlb, MissThenHit) {
  Tlb tlb(4);
  tlb.size_units(16);
  EXPECT_FALSE(tlb.lookup(10));
  tlb.insert(10);
  EXPECT_TRUE(tlb.lookup(10));
}

TEST(Tlb, EvictsLruWhenFull) {
  Tlb tlb(2);
  tlb.size_units(16);
  tlb.insert(1);
  tlb.insert(2);
  tlb.insert(3);  // evicts 1
  EXPECT_FALSE(tlb.lookup(1));
  EXPECT_TRUE(tlb.lookup(2));
  EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, LookupRefreshesRecency) {
  Tlb tlb(2);
  tlb.size_units(16);
  tlb.insert(1);
  tlb.insert(2);
  EXPECT_TRUE(tlb.lookup(1));  // 2 is now LRU
  tlb.insert(3);               // evicts 2
  EXPECT_TRUE(tlb.lookup(1));
  EXPECT_FALSE(tlb.lookup(2));
  EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, ReinsertRefreshesWithoutDuplicating) {
  Tlb tlb(2);
  tlb.size_units(16);
  tlb.insert(1);
  tlb.insert(2);
  tlb.insert(1);  // already present: refresh, no eviction
  EXPECT_EQ(tlb.occupancy(), 2u);
  tlb.insert(3);  // evicts 2 (LRU), not 1
  EXPECT_TRUE(tlb.lookup(1));
  EXPECT_FALSE(tlb.lookup(2));
}

TEST(Tlb, InvalidateRemovesEntry) {
  Tlb tlb(4);
  tlb.size_units(16);
  tlb.insert(5);
  EXPECT_TRUE(tlb.invalidate(5));
  EXPECT_FALSE(tlb.lookup(5));
  EXPECT_FALSE(tlb.invalidate(5));  // already gone
  EXPECT_EQ(tlb.occupancy(), 0u);
}

TEST(Tlb, InvalidateFreesSlotForReuse) {
  Tlb tlb(2);
  tlb.size_units(16);
  tlb.insert(1);
  tlb.insert(2);
  tlb.invalidate(1);
  tlb.insert(3);  // uses the freed slot: 2 must survive
  EXPECT_TRUE(tlb.lookup(2));
  EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, CapacityOneDegenerate) {
  Tlb tlb(1);
  tlb.size_units(16);
  tlb.insert(1);
  EXPECT_TRUE(tlb.lookup(1));
  tlb.insert(2);
  EXPECT_FALSE(tlb.lookup(1));
  EXPECT_TRUE(tlb.lookup(2));
}

// Property: under any operation sequence, occupancy never exceeds capacity
// and lookups reflect the most recent insert/invalidate for each unit.
TEST(TlbProperty, StressAgainstReferenceModel) {
  const std::uint32_t kCapacity = 8;
  Tlb tlb(kCapacity);
  tlb.size_units(32);
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 0; i < 20000; ++i) {
    const UnitIdx unit = next() % 32;
    switch (next() % 3) {
      case 0:
        tlb.insert(unit);
        EXPECT_TRUE(tlb.lookup(unit));
        break;
      case 1:
        tlb.lookup(unit);
        break;
      case 2:
        tlb.invalidate(unit);
        EXPECT_FALSE(tlb.lookup(unit));
        break;
    }
    ASSERT_LE(tlb.occupancy(), kCapacity);
  }
}

// Eviction order against a std::list true-LRU model (front = MRU): after
// every operation the TLB's MRU -> LRU chain equals the list. Run at the
// KNC 4 kB capacity and at the largest the one-byte slot index allows.
class TlbLruOrderTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TlbLruOrderTest, MatchesListModel) {
  const std::uint32_t capacity = GetParam();
  Tlb tlb(capacity);
  tlb.size_units(3 * capacity);
  std::list<UnitIdx> model;
  std::uint64_t state = 4321;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const auto touch = [&model](UnitIdx unit) {
    const auto it = std::find(model.begin(), model.end(), unit);
    if (it == model.end()) return false;
    model.splice(model.begin(), model, it);
    return true;
  };
  std::vector<UnitIdx> chain;
  for (int i = 0; i < 20000; ++i) {
    const UnitIdx unit = static_cast<UnitIdx>(next() % (3 * capacity));
    switch (next() % 8) {
      case 0: case 1: case 2:
        ASSERT_EQ(tlb.lookup(unit), touch(unit));
        break;
      case 3: case 4: case 5:
        tlb.insert(unit);
        if (!touch(unit)) {
          if (model.size() == capacity) model.pop_back();
          model.push_front(unit);
        }
        break;
      case 6: {
        const auto it = std::find(model.begin(), model.end(), unit);
        ASSERT_EQ(tlb.invalidate(unit), it != model.end());
        if (it != model.end()) model.erase(it);
        break;
      }
      case 7:
        // Occasionally empty the TLB one INVLPG at a time, as a
        // shootdown of every cached unit would.
        if (next() % 64 == 0) {
          for (const UnitIdx u : model) ASSERT_TRUE(tlb.invalidate(u));
          model.clear();
        }
        break;
    }
    chain.clear();
    tlb.for_each_entry([&chain](UnitIdx u) { chain.push_back(u); });
    ASSERT_TRUE(std::equal(chain.begin(), chain.end(), model.begin(),
                           model.end()))
        << "after op " << i;
    ASSERT_EQ(tlb.occupancy(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbLruOrderTest,
                         ::testing::Values(64u, Tlb::kMaxCapacity));

TEST(TlbDeath, RejectsCapacityAboveOneByteIndex) {
  EXPECT_DEATH(Tlb(Tlb::kMaxCapacity + 1), "one-byte");
}

struct TlbEntriesCase {
  PageSizeClass size;
  std::uint32_t expected;
};

// gtest would print the struct as raw bytes, padding included, and CTest
// names each case from that printout; printing the size class names the
// cases 4kB / 64kB / 2MB in every build.
void PrintTo(const TlbEntriesCase& c, std::ostream* os) {
  *os << to_string(c.size);
}

class TlbEntriesTest : public ::testing::TestWithParam<TlbEntriesCase> {};

TEST_P(TlbEntriesTest, EntriesPerSizeClass) {
  EXPECT_EQ(tlb_entries(GetParam().size), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllSizes, TlbEntriesTest,
    ::testing::Values(TlbEntriesCase{PageSizeClass::k4K, 64},
                      TlbEntriesCase{PageSizeClass::k64K, 32},
                      TlbEntriesCase{PageSizeClass::k2M, 8}));

}  // namespace
}  // namespace cmcp::sim
