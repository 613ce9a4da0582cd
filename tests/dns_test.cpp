#include <gtest/gtest.h>

#include "dns/resolver.h"
#include "dns/zone.h"

namespace v6mon::dns {
namespace {

ZoneDb make_zone() {
  ZoneDb db;
  ResourceRecord a;
  a.name = "www.example.test";
  a.type = RecordType::kA;
  a.rdata = ip::Ipv4Address::parse_or_throw("192.0.2.10");
  db.add(a);
  ResourceRecord aaaa;
  aaaa.name = "www.example.test";
  aaaa.type = RecordType::kAaaa;
  aaaa.rdata = ip::Ipv6Address::parse_or_throw("2001:db8::10");
  db.add(aaaa);
  ResourceRecord v4only;
  v4only.name = "v4.example.test";
  v4only.type = RecordType::kA;
  v4only.rdata = ip::Ipv4Address::parse_or_throw("192.0.2.20");
  db.add(v4only);
  return db;
}

TEST(ZoneDb, QueryByType) {
  const ZoneDb db = make_zone();
  bool exists = false;
  const auto as = db.query("www.example.test", RecordType::kA, 0, exists);
  EXPECT_TRUE(exists);
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].a().to_string(), "192.0.2.10");
  const auto aaaas = db.query("www.example.test", RecordType::kAaaa, 0, exists);
  ASSERT_EQ(aaaas.size(), 1u);
  EXPECT_EQ(aaaas[0].aaaa().to_string(), "2001:db8::10");
}

TEST(ZoneDb, NodataVsNxdomain) {
  const ZoneDb db = make_zone();
  bool exists = false;
  const auto nodata = db.query("v4.example.test", RecordType::kAaaa, 0, exists);
  EXPECT_TRUE(exists);  // name exists...
  EXPECT_TRUE(nodata.empty());  // ...but no AAAA (NODATA)
  const auto nx = db.query("nope.example.test", RecordType::kA, 0, exists);
  EXPECT_FALSE(exists);
  EXPECT_TRUE(nx.empty());
}

TEST(Resolver, ResolvesAndCountsStats) {
  const ZoneDb db = make_zone();
  Resolver r(db, {}, 1);
  const auto res = r.resolve("www.example.test", RecordType::kA, 0);
  EXPECT_TRUE(res.has_answers());
  EXPECT_EQ(res.rcode, Rcode::kOk);
  EXPECT_FALSE(res.from_cache);
  const auto nx = r.resolve("nope.example.test", RecordType::kA, 0);
  EXPECT_EQ(nx.rcode, Rcode::kNxDomain);
  EXPECT_EQ(r.stats().queries, 2u);
  EXPECT_EQ(r.stats().nxdomain, 1u);
}

TEST(Resolver, NodataIsOkButEmpty) {
  const ZoneDb db = make_zone();
  Resolver r(db, {}, 1);
  const auto res = r.resolve("v4.example.test", RecordType::kAaaa, 0);
  EXPECT_TRUE(res.ok());
  EXPECT_FALSE(res.has_answers());
}

TEST(Resolver, CachingWithinTtl) {
  const ZoneDb db = make_zone();
  Resolver r(db, {.cache_rounds = 2, .timeout_prob = 0.0}, 1);
  EXPECT_FALSE(r.resolve("www.example.test", RecordType::kA, 0).from_cache);
  EXPECT_TRUE(r.resolve("www.example.test", RecordType::kA, 1).from_cache);
  // Round 2 = expiry (0 + 2): fresh query.
  EXPECT_FALSE(r.resolve("www.example.test", RecordType::kA, 2).from_cache);
  EXPECT_EQ(r.stats().cache_hits, 1u);
}

TEST(Resolver, CacheKeysIncludeType) {
  const ZoneDb db = make_zone();
  Resolver r(db, {.cache_rounds = 5, .timeout_prob = 0.0}, 1);
  (void)r.resolve("www.example.test", RecordType::kA, 0);
  const auto aaaa = r.resolve("www.example.test", RecordType::kAaaa, 0);
  EXPECT_FALSE(aaaa.from_cache);
  ASSERT_EQ(aaaa.records.size(), 1u);
  EXPECT_EQ(aaaa.records[0].type, RecordType::kAaaa);
}

TEST(Resolver, FlushDropsCache) {
  const ZoneDb db = make_zone();
  Resolver r(db, {.cache_rounds = 10, .timeout_prob = 0.0}, 1);
  (void)r.resolve("www.example.test", RecordType::kA, 0);
  r.flush();
  EXPECT_FALSE(r.resolve("www.example.test", RecordType::kA, 0).from_cache);
}

TEST(Resolver, TimeoutInjection) {
  const ZoneDb db = make_zone();
  Resolver r(db, {.cache_rounds = 0, .timeout_prob = 1.0}, 1);
  const auto res = r.resolve("www.example.test", RecordType::kA, 0);
  EXPECT_EQ(res.rcode, Rcode::kTimeout);
  EXPECT_EQ(r.stats().timeouts, 1u);
}

TEST(Resolver, TimeoutRateApproximatesConfig) {
  const ZoneDb db = make_zone();
  Resolver r(db, {.cache_rounds = 0, .timeout_prob = 0.2}, 2);
  int timeouts = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (r.resolve("www.example.test", RecordType::kA, 0).rcode == Rcode::kTimeout) {
      ++timeouts;
    }
  }
  EXPECT_NEAR(static_cast<double>(timeouts) / n, 0.2, 0.03);
}

TEST(Record, TypeNames) {
  EXPECT_STREQ(record_type_name(RecordType::kA), "A");
  EXPECT_STREQ(record_type_name(RecordType::kAaaa), "AAAA");
  EXPECT_STREQ(record_type_name(RecordType::kNs), "NS");
}

}  // namespace
}  // namespace v6mon::dns
