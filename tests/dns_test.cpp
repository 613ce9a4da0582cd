// The catalog resolver that the monitor's DNS phase is held to
// (reference/dns_reference.h): hostnames, NXDOMAIN, NODATA, answers that
// follow a site's AAAA window, and timeout injection.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "reference/dns_reference.h"
#include "topo/address_plan.h"
#include "topo/generator.h"

namespace v6mon::dns_ref {
namespace {

/// A 4,000-site catalog over a small topology, generated once.
const web::SiteCatalog& small_catalog() {
  static const web::SiteCatalog catalog = [] {
    util::Rng topo_rng(5);
    topo::TopologyParams tp;
    tp.num_tier1 = 4;
    tp.num_transit = 30;
    tp.num_stub = 150;
    topo::AsGraph graph = topo::generate_topology(tp, topo_rng);
    topo::assign_addresses(graph, {}, topo_rng);
    web::CatalogParams p;
    p.initial_sites = 4000;
    p.churn_per_round = 50;
    p.num_rounds = 20;
    p.dns_cache_sites = 500;
    util::Rng rng(10);
    return web::SiteCatalog::generate(graph, p, rng);
  }();
  return catalog;
}

/// The first site that is dual-stack (`dual`) or never is (`!dual`).
const web::Site& first_site(bool dual) {
  for (const web::Site& s : small_catalog().sites()) {
    if ((s.v6_record == web::kNoV6Record) != dual) return s;
  }
  throw std::logic_error("no such site in the catalog");
}

TEST(Resolver, ResolvesAndCountsStats) {
  const web::Site& site = first_site(false);
  CatalogResolver r(small_catalog(), 0.0, 1);
  const Answer a = r.resolve(site_hostname(site.id), QueryType::kA, 0);
  EXPECT_EQ(a.rcode, Rcode::kOk);
  ASSERT_TRUE(a.a.has_value());
  EXPECT_EQ(*a.a, site.v4_addr);
  const Answer nx = r.resolve("nope.example.test", QueryType::kA, 0);
  EXPECT_EQ(nx.rcode, Rcode::kNxDomain);
  EXPECT_FALSE(nx.has_answers());
  EXPECT_EQ(r.queries(), 2u);
  EXPECT_EQ(r.timeouts(), 0u);
}

TEST(Resolver, NodataIsOkButEmpty) {
  CatalogResolver r(small_catalog(), 0.0, 1);
  const Answer res = r.resolve(site_hostname(first_site(false).id), QueryType::kAaaa, 0);
  EXPECT_EQ(res.rcode, Rcode::kOk);
  EXPECT_FALSE(res.has_answers());
}

TEST(Resolver, TimeoutInjection) {
  CatalogResolver r(small_catalog(), 1.0, 1);
  const Answer res = r.resolve(site_hostname(first_site(true).id), QueryType::kA, 0);
  EXPECT_EQ(res.rcode, Rcode::kTimeout);
  EXPECT_FALSE(res.has_answers());
  EXPECT_EQ(r.timeouts(), 1u);
}

TEST(Resolver, TimeoutRateApproximatesConfig) {
  CatalogResolver r(small_catalog(), 0.2, 2);
  const std::string host = site_hostname(first_site(true).id);
  int timeouts = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (r.resolve(host, QueryType::kA, 0).rcode == Rcode::kTimeout) ++timeouts;
  }
  EXPECT_NEAR(static_cast<double>(timeouts) / n, 0.2, 0.03);
  EXPECT_EQ(r.timeouts(), static_cast<std::uint64_t>(timeouts));
}

TEST(SiteCatalog, HostnameRoundTrip) {
  const web::Site& s = small_catalog().site(123);
  EXPECT_EQ(site_hostname(s.id), "www.s123.v6mon.test");
  EXPECT_EQ(parse_site_hostname(site_hostname(s.id)), s.id);
  CatalogResolver r(small_catalog(), 0.0, 1);
  EXPECT_EQ(r.resolve("www.example.com", QueryType::kA, 0).rcode, Rcode::kNxDomain);
  EXPECT_EQ(r.resolve("www.s99999999.v6mon.test", QueryType::kA, 0).rcode,
            Rcode::kNxDomain);
}

TEST(ParseSiteHostname, Cases) {
  EXPECT_EQ(*parse_site_hostname("www.s0.v6mon.test"), 0u);
  EXPECT_EQ(*parse_site_hostname("www.s42.v6mon.test"), 42u);
  EXPECT_FALSE(parse_site_hostname("www.s.v6mon.test").has_value());
  EXPECT_FALSE(parse_site_hostname("www.sX.v6mon.test").has_value());
  EXPECT_FALSE(parse_site_hostname("s42.v6mon.test").has_value());
  EXPECT_FALSE(parse_site_hostname("www.s42.other.test").has_value());
  EXPECT_FALSE(parse_site_hostname("").has_value());
}

TEST(CatalogDnsBackend, AnswersTrackAdoptionRound) {
  const web::SiteCatalog& cat = small_catalog();
  CatalogResolver resolver(cat, 0.0, 11);

  // Find a site that adopts v6 mid-campaign.
  const web::Site* mid = nullptr;
  std::uint32_t from_round = web::kNever;
  for (const web::Site& s : cat.sites()) {
    from_round = cat.v6_presence(s).from_round;
    if (from_round != web::kNever && from_round > 2 &&
        from_round <= cat.params().num_rounds) {
      mid = &s;
      break;
    }
  }
  ASSERT_NE(mid, nullptr) << "no mid-campaign adopter generated";
  const std::string host = site_hostname(mid->id);

  const Answer before = resolver.resolve(host, QueryType::kAaaa, from_round - 1);
  EXPECT_EQ(before.rcode, Rcode::kOk);
  EXPECT_FALSE(before.has_answers());
  const Answer after = resolver.resolve(host, QueryType::kAaaa, from_round);
  ASSERT_TRUE(after.aaaa.has_value());
  EXPECT_EQ(*after.aaaa, cat.v6_presence(*mid).addr);
  const Answer a = resolver.resolve(host, QueryType::kA, 0);
  ASSERT_TRUE(a.a.has_value());
  EXPECT_EQ(*a.a, mid->v4_addr);
  const Answer nx = resolver.resolve("www.unknown.test", QueryType::kA, 0);
  EXPECT_EQ(nx.rcode, Rcode::kNxDomain);
}

}  // namespace
}  // namespace v6mon::dns_ref
