#include "bgp/rib.h"

#include <gtest/gtest.h>

namespace v6mon::bgp {
namespace {

RibEntry entry(topo::Asn origin, std::vector<topo::Asn> path) {
  RibEntry e;
  e.origin = origin;
  e.as_path = std::move(path);
  return e;
}

TEST(Rib, EmptyLookupsMiss) {
  Rib rib;
  EXPECT_EQ(rib.lookup_v4(ip::Ipv4Address::parse_or_throw("10.0.0.1")), nullptr);
  EXPECT_EQ(rib.lookup_v6(ip::Ipv6Address::parse_or_throw("2001:db8::1")), nullptr);
  EXPECT_EQ(rib.v4_routes(), 0u);
  EXPECT_EQ(rib.v6_routes(), 0u);
}

TEST(Rib, LongestPrefixMatchAcrossFamilies) {
  Rib rib;
  rib.add_v4(*ip::Ipv4Prefix::parse("10.0.0.0/8"), entry(100, {1, 100}));
  rib.add_v4(*ip::Ipv4Prefix::parse("10.5.0.0/16"), entry(200, {1, 2, 200}));
  rib.add_v6(*ip::Ipv6Prefix::parse("2001:db8::/32"), entry(100, {1, 100}));
  rib.add_v6(*ip::Ipv6Prefix::parse("2002::/16"), entry(300, {1, 3, 300}));

  const auto* general = rib.lookup_v4(ip::Ipv4Address::parse_or_throw("10.9.0.1"));
  ASSERT_NE(general, nullptr);
  EXPECT_EQ(general->origin, 100u);
  const auto* specific = rib.lookup_v4(ip::Ipv4Address::parse_or_throw("10.5.7.7"));
  ASSERT_NE(specific, nullptr);
  EXPECT_EQ(specific->origin, 200u);
  EXPECT_EQ(specific->hop_count(), 3u);

  const auto* six_to_four =
      rib.lookup_v6(ip::Ipv6Address::parse_or_throw("2002:a00::1"));
  ASSERT_NE(six_to_four, nullptr);
  EXPECT_EQ(six_to_four->origin, 300u);
  EXPECT_EQ(rib.lookup_v6(ip::Ipv6Address::parse_or_throw("2003::1")), nullptr);
}

TEST(Rib, LocalRouteHasEmptyPath) {
  Rib rib;
  rib.add_v4(*ip::Ipv4Prefix::parse("192.0.2.0/24"), entry(7, {}));
  const auto* e = rib.lookup_v4(ip::Ipv4Address::parse_or_throw("192.0.2.50"));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->hop_count(), 0u);
}

TEST(Rib, ForEachVisitsEverything) {
  Rib rib;
  rib.add_v4(*ip::Ipv4Prefix::parse("10.0.0.0/8"), entry(1, {1}));
  rib.add_v4(*ip::Ipv4Prefix::parse("11.0.0.0/8"), entry(2, {2}));
  rib.add_v6(*ip::Ipv6Prefix::parse("2001:db8::/32"), entry(3, {3}));
  std::size_t v4 = 0, v6 = 0;
  rib.for_each_v4([&](const ip::Ipv4Prefix&, const RibEntry&) { ++v4; });
  rib.for_each_v6([&](const ip::Ipv6Prefix&, const RibEntry&) { ++v6; });
  EXPECT_EQ(v4, 2u);
  EXPECT_EQ(v6, 1u);
}

// The path memo is drawn once and kept, and never travels: an installed
// or rewritten route (a copy or an assignment) starts unset, and
// equality ignores it.
TEST(Rib, PathMemoIsKeptButNotCopied) {
  Rib rib;
  const auto prefix = *ip::Ipv4Prefix::parse("10.0.0.0/8");
  rib.add_v4(prefix, entry(100, {1, 100}));
  const RibEntry* e = rib.find_v4(prefix);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->path_normal.value().has_value());
  int draws = 0;
  const auto draw = [&draws] {
    ++draws;
    return -0.25;
  };
  EXPECT_EQ(e->path_normal.get(draw), -0.25);
  EXPECT_EQ(e->path_normal.get(draw), -0.25);
  EXPECT_EQ(draws, 1);
  EXPECT_EQ(e->path_normal.value(), -0.25);

  RibEntry copy = *e;
  EXPECT_FALSE(copy.path_normal.value().has_value());
  EXPECT_EQ(copy, *e);
  rib.add_v4(prefix, entry(100, {1, 100}));  // rewritten in place
  EXPECT_EQ(rib.find_v4(prefix), e);
  EXPECT_FALSE(e->path_normal.value().has_value());
}

// Rib::bytes counts by size: one 12-byte trie node per prefix bit walked
// (plus each family's root), one entry slot per installed prefix (a
// withdrawn prefix keeps its slot, a rewrite reuses it) and each entry's
// AS_PATH elements.
TEST(Rib, BytesCountNodesEntriesAndPaths) {
  constexpr std::size_t kNode = 3 * sizeof(std::uint32_t);
  Rib rib;
  EXPECT_EQ(rib.bytes(), 2 * kNode);
  const auto v4 = *ip::Ipv4Prefix::parse("10.0.0.0/8");
  rib.add_v4(v4, entry(100, {1, 2, 100}));
  const std::size_t one_v4 = 2 * kNode + 8 * kNode + sizeof(RibEntry) + 3 * sizeof(topo::Asn);
  EXPECT_EQ(rib.bytes(), one_v4);
  rib.add_v6(*ip::Ipv6Prefix::parse("2001:db8::/32"), entry(100, {100}));
  const std::size_t both = one_v4 + 32 * kNode + sizeof(RibEntry) + sizeof(topo::Asn);
  EXPECT_EQ(rib.bytes(), both);
  rib.add_v4(v4, entry(100, {7, 100}));  // rewritten in place: one path element fewer
  EXPECT_EQ(rib.bytes(), both - sizeof(topo::Asn));
  EXPECT_TRUE(rib.erase_v4(v4));  // the slot stays
  EXPECT_EQ(rib.bytes(), both - sizeof(topo::Asn));
}

}  // namespace
}  // namespace v6mon::bgp
