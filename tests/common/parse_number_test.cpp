#include "common/parse_number.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

namespace cmcp::common {
namespace {

TEST(ParseNumber, AcceptsWholeTokens) {
  EXPECT_EQ(parse_number<std::uint32_t>("56"), 56u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(parse_number<int>("-3"), -3);
  EXPECT_EQ(parse_number<double>("0.64"), 0.64);
  EXPECT_EQ(parse_number<double>("1e-3"), 1e-3);
}

TEST(ParseNumber, RejectsEmptyInput) {
  EXPECT_EQ(parse_number<std::uint32_t>(""), std::nullopt);
  EXPECT_EQ(parse_number<double>(""), std::nullopt);
}

TEST(ParseNumber, RejectsTrailingGarbage) {
  EXPECT_EQ(parse_number<std::uint32_t>("abc"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint32_t>("8x"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint32_t>("8 "), std::nullopt);
  EXPECT_EQ(parse_number<double>("0.5%"), std::nullopt);
  EXPECT_EQ(parse_number<double>("x"), std::nullopt);
}

TEST(ParseNumber, RejectsNegativeValueForUnsignedType) {
  EXPECT_EQ(parse_number<std::uint32_t>("-1"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint64_t>("-0"), std::nullopt);
}

TEST(ParseNumber, RejectsOverflow) {
  EXPECT_EQ(parse_number<std::uint32_t>("4294967296"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551616"),
            std::nullopt);
  EXPECT_EQ(parse_number<double>("1e999"), std::nullopt);
  EXPECT_EQ(parse_number<double>("inf"), std::nullopt);
  EXPECT_EQ(parse_number<double>("nan"), std::nullopt);
}

TEST(ParseNumberDeath, BadFlagValueExitsTwoNamingTheFlag) {
  EXPECT_EQ(parse_flag<std::uint32_t>("--cores", "8"), 8u);
  EXPECT_EXIT(parse_flag<std::uint32_t>("--cores", "abc"),
              ::testing::ExitedWithCode(2),
              "--cores: 'abc' is not a number");
}

TEST(ParseNumberDeath, OutOfRangeFlagValueExitsTwoNamingTheRange) {
  EXPECT_EQ(parse_flag<std::uint32_t>("--cores", "1", 1, 1087), 1u);
  EXPECT_EQ(parse_flag<std::uint32_t>("--cores", "1087", 1, 1087), 1087u);
  EXPECT_EXIT(parse_flag<std::uint32_t>("--cores", "0", 1, 1087),
              ::testing::ExitedWithCode(2),
              "--cores: '0' is out of range \\[1, 1087\\]");
  EXPECT_EXIT(parse_flag<std::uint32_t>("--cores", "1088", 1, 1087),
              ::testing::ExitedWithCode(2), "--cores: '1088' is out of range");
  EXPECT_EXIT(parse_flag<std::uint32_t>("--cores", "x", 1, 1087),
              ::testing::ExitedWithCode(2), "--cores: 'x' is not a number");
}

}  // namespace
}  // namespace cmcp::common
