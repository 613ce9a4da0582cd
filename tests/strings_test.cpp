#include "util/strings.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace v6mon::util {
namespace {

TEST(Split, Basic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoDelimiter) {
  const auto parts = split("whole", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "whole");
}

TEST(Trim, Basic) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("inner space kept"), "inner space kept");
}

TEST(Format, Printf) {
  EXPECT_EQ(format("as%d path %.1f", 7, 2.5), "as7 path 2.5");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(IsDigits, Cases) {
  EXPECT_TRUE(is_digits("0123"));
  EXPECT_FALSE(is_digits(""));
  EXPECT_FALSE(is_digits("12a"));
  EXPECT_FALSE(is_digits("-1"));
}

// Whole tokens only: what strtod/strtoull would silently cut short (or
// read as 0) is rejected.
TEST(ParseNumber, WholeTokensOnly) {
  EXPECT_EQ(parse_number<std::uint64_t>("2011"), 2011u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<unsigned>("0"), 0u);
  EXPECT_FALSE(parse_number<std::uint64_t>(""));
  EXPECT_FALSE(parse_number<std::uint64_t>("xyz"));
  EXPECT_FALSE(parse_number<std::uint64_t>("12a"));
  EXPECT_FALSE(parse_number<std::uint64_t>(" 12"));
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_number<unsigned>("-1"));
  EXPECT_FALSE(parse_number<double>("abc"));
  EXPECT_FALSE(parse_number<double>("0.5x"));
}

TEST(Join, Cases) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, " -> "), "a -> b -> c");
}

}  // namespace
}  // namespace v6mon::util
