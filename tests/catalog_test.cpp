#include "web/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>

#include "scenario/paper.h"
#include "scenario/world_builder.h"
#include "topo/address_plan.h"
#include "topo/generator.h"

namespace v6mon::web {
namespace {

struct World {
  topo::AsGraph graph;
  World() {
    util::Rng rng(5);
    topo::TopologyParams tp;
    tp.num_tier1 = 4;
    tp.num_transit = 30;
    tp.num_stub = 150;
    graph = topo::generate_topology(tp, rng);
    topo::assign_addresses(graph, {}, rng);
  }
};

CatalogParams small_params() {
  CatalogParams p;
  p.initial_sites = 4000;
  p.churn_per_round = 50;
  p.num_rounds = 20;
  p.dns_cache_sites = 500;
  return p;
}

TEST(SiteCatalog, SizeAndIdsAreDense) {
  World w;
  util::Rng rng(1);
  const auto cat = SiteCatalog::generate(w.graph, small_params(), rng);
  const auto& p = small_params();
  EXPECT_EQ(cat.size(),
            p.initial_sites + p.churn_per_round * p.num_rounds + p.dns_cache_sites);
  for (std::size_t i = 0; i < cat.size(); ++i) {
    EXPECT_EQ(cat.site(i).id, i);
  }
}

TEST(SiteCatalog, Deterministic) {
  World w;
  util::Rng r1(7), r2(7);
  const auto a = SiteCatalog::generate(w.graph, small_params(), r1);
  const auto b = SiteCatalog::generate(w.graph, small_params(), r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a.site(i).v4_as, b.site(i).v4_as);
    EXPECT_EQ(a.site(i).v6_from_round, b.site(i).v6_from_round);
    EXPECT_EQ(a.site(i).page_kb, b.site(i).page_kb);
  }
}

TEST(SiteCatalog, ChurnSitesAppearLater) {
  World w;
  util::Rng rng(2);
  const auto p = small_params();
  const auto cat = SiteCatalog::generate(w.graph, p, rng);
  EXPECT_LT(cat.listed_at(0), cat.listed_at(static_cast<std::uint32_t>(p.num_rounds)));
  EXPECT_EQ(cat.listed_at(0), p.initial_sites);
  EXPECT_EQ(cat.listed_at(1), p.initial_sites + p.churn_per_round);
  // DNS-cache sites never count toward the ranked list.
  EXPECT_EQ(cat.listed_at(static_cast<std::uint32_t>(p.num_rounds)),
            p.initial_sites + p.churn_per_round * p.num_rounds);
}

TEST(SiteCatalog, RankBucketsDriveAdoption) {
  World w;
  util::Rng rng(3);
  CatalogParams p = small_params();
  p.initial_sites = 60'000;
  p.churn_per_round = 0;
  p.adoption.top1k = 0.30;
  p.adoption.rest = 0.01;
  const auto cat = SiteCatalog::generate(w.graph, p, rng);
  std::size_t top1k_v6 = 0, rest = 0, rest_v6 = 0;
  for (const Site& s : cat.sites()) {
    if (s.rank >= 1 && s.rank <= 1000) {
      top1k_v6 += s.v6_from_round != kNever ? 1 : 0;
    } else if (s.rank > 100'000 || s.rank == 0) {
      ++rest;
      rest_v6 += s.v6_from_round != kNever ? 1 : 0;
    }
  }
  const double top_frac = static_cast<double>(top1k_v6) / 1000.0;
  const double rest_frac = static_cast<double>(rest_v6) / static_cast<double>(rest);
  EXPECT_GT(top_frac, 5 * rest_frac);
}

TEST(SiteCatalog, RoundWeightsShapeAdoptionTiming) {
  World w;
  util::Rng rng(4);
  CatalogParams p = small_params();
  p.initial_sites = 50'000;
  p.adoption = RankAdoption{0.5, 0.5, 0.5, 0.5, 0.5, 0.5};  // many adopters
  p.round_weights.assign(p.num_rounds + 1, 0.1);
  p.round_weights[10] = 50.0;  // one big jump (a "World IPv6 Day")
  const auto cat = SiteCatalog::generate(w.graph, p, rng);
  const double before = cat.reachability_at(9);
  const double after = cat.reachability_at(10);
  EXPECT_GT(after, before * 3);
}

TEST(SiteCatalog, ReachabilityIsMonotone) {
  World w;
  util::Rng rng(5);
  const auto p = small_params();
  const auto cat = SiteCatalog::generate(w.graph, p, rng);
  double prev = -1.0;
  // Reachability per listed population can dip when churn adds v4-only
  // sites; compare absolute v6 counts instead for monotonicity.
  std::size_t prev_count = 0;
  for (std::uint32_t r = 0; r <= static_cast<std::uint32_t>(p.num_rounds); ++r) {
    std::size_t v6 = 0;
    for (const Site& s : cat.sites()) {
      if (!s.from_dns_cache && s.in_list_at(r) && s.dual_stack_at(r)) ++v6;
    }
    EXPECT_GE(v6, prev_count);
    prev_count = v6;
    (void)prev;
  }
}

TEST(SiteCatalog, DualStackSitesHaveConsistentHosting) {
  World w;
  util::Rng rng(6);
  const auto cat = SiteCatalog::generate(w.graph, small_params(), rng);
  const auto om = topo::OriginMap::build(w.graph);
  std::size_t dual = 0, dl = 0;
  for (const Site& s : cat.sites()) {
    ASSERT_NE(s.v4_as, topo::kNoAs);
    // v4 address must map back to the hosting AS.
    ASSERT_TRUE(om.origin_v4(s.v4_addr).has_value());
    EXPECT_EQ(*om.origin_v4(s.v4_addr), s.v4_as);
    if (s.v6_from_round == kNever) continue;
    ++dual;
    const V6Presence v6 = cat.v6_presence(s);
    EXPECT_TRUE(w.graph.node(v6.as).has_v6);
    ASSERT_TRUE(om.origin_v6(v6.addr).has_value());
    EXPECT_EQ(*om.origin_v6(v6.addr), v6.as);
    if (cat.different_location(s)) ++dl;
  }
  EXPECT_GT(dual, 0u);
  EXPECT_GT(dl, 0u);   // some CDN-split sites
  EXPECT_LT(dl, dual); // but not all
}

TEST(SiteCatalog, ServerPenaltyClustersByHostingAs) {
  World w;
  util::Rng rng(7);
  CatalogParams p = small_params();
  p.initial_sites = 40'000;
  p.adoption = RankAdoption{0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
  p.v6_bad_host_as_prob = 0.2;
  p.v6_penalty_prob_bad_host = 0.8;
  p.v6_penalty_prob_good_host = 0.02;
  p.w6d_round = kNever;
  const auto cat = SiteCatalog::generate(w.graph, p, rng);
  // Per hosting AS, penalty rates must be bimodal: mostly-penalized ASes
  // and almost-clean ASes, with few in between.
  std::map<topo::Asn, std::pair<std::size_t, std::size_t>> by_as;  // {dual, penalized}
  for (const Site& s : cat.sites()) {
    if (s.v6_from_round == kNever) continue;
    if (cat.different_location(s)) continue;  // DL sites carry the CDN/origin factor
    const V6Presence v6 = cat.v6_presence(s);
    auto& [dual, pen] = by_as[v6.as];
    ++dual;
    if (v6.server_factor < 1.0f) ++pen;
  }
  std::size_t high = 0, low = 0, mid = 0, considered = 0;
  for (const auto& [asn, counts] : by_as) {
    if (counts.first < 10) continue;
    ++considered;
    const double rate =
        static_cast<double>(counts.second) / static_cast<double>(counts.first);
    if (rate > 0.55) ++high;
    else if (rate < 0.25) ++low;
    else ++mid;
  }
  ASSERT_GT(considered, 20u);
  EXPECT_GT(high, 0u);
  EXPECT_GT(low, high);      // most hosting ASes are clean
  EXPECT_LT(mid, considered / 4);  // the middle band is thin
}

TEST(SiteCatalog, W6dParticipantsAreV6ByTheEvent) {
  World w;
  util::Rng rng(8);
  CatalogParams p = small_params();
  p.initial_sites = 30'000;
  p.w6d_round = 15;
  const auto cat = SiteCatalog::generate(w.graph, p, rng);
  std::size_t participants = 0;
  for (const Site& s : cat.sites()) {
    if (!s.w6d_participant) continue;
    ++participants;
    EXPECT_TRUE(s.dual_stack_at(15)) << "site " << s.id;
    EXPECT_EQ(cat.v6_presence(s).server_factor, 1.0f);
  }
  EXPECT_GT(participants, 50u);
}

TEST(SiteCatalog, V6RecordsOnlyForSitesWithAaaa) {
  World w;
  util::Rng rng(9);
  CatalogParams p = small_params();
  p.initial_sites = 20'000;
  p.w6d_round = 15;
  const auto cat = SiteCatalog::generate(w.graph, p, rng);
  std::size_t with_aaaa = 0, v4_only = 0;
  std::uint32_t last_owner = 0;
  for (const Site& s : cat.sites()) {
    if (s.v6_from_round == kNever) {
      ++v4_only;
      EXPECT_EQ(s.v6_record, kNoV6Record) << "site " << s.id;
      const V6Presence v6 = cat.v6_presence(s);
      EXPECT_EQ(v6.as, s.v4_as);
      EXPECT_EQ(v6.addr, ip::Ipv6Address{});
      EXPECT_EQ(v6.page_ratio, 1.0f);
      EXPECT_EQ(v6.server_factor, 1.0f);
      EXPECT_FALSE(cat.different_location(s));
      continue;
    }
    // Records are appended in site-id order: the k-th site with an AAAA
    // window owns record k.
    ASSERT_EQ(s.v6_record, with_aaaa) << "site " << s.id;
    EXPECT_TRUE(with_aaaa == 0 || s.id > last_owner);
    last_owner = s.id;
    ++with_aaaa;
  }
  EXPECT_EQ(cat.v6_records().size(), with_aaaa);
  EXPECT_GT(with_aaaa, 0u);
  EXPECT_GT(v4_only, with_aaaa);
  EXPECT_EQ(cat.bytes(), cat.size() * sizeof(Site) + with_aaaa * sizeof(V6Presence) +
                             cat.relocations().size() *
                                 sizeof(std::pair<const std::uint32_t, Hosting>));
}

/// std::lower_bound's answer, the oracle for CumulativeIndex::find.
std::size_t oracle_find(const std::vector<double>& c, double u) {
  return static_cast<std::size_t>(std::lower_bound(c.begin(), c.end(), u) - c.begin());
}

/// Every probe the guide table can get wrong: each cumulative value and
/// its neighbours on both sides, 0, the largest double below the total,
/// the total itself, and `randoms` uniform draws over [0, total).
void expect_index_matches_lower_bound(const std::vector<double>& c, std::size_t randoms) {
  const CumulativeIndex index(c);
  const double total = c.back();
  std::vector<double> probes = {0.0, std::nextafter(total, 0.0), total};
  for (const double v : c) {
    probes.push_back(v);
    probes.push_back(std::nextafter(v, 0.0));
    probes.push_back(std::nextafter(v, total + 1.0));
  }
  for (const double u : probes) {
    if (u < 0.0 || u > total) continue;
    ASSERT_EQ(index.find(u), oracle_find(c, u)) << "u = " << u;
  }
  util::Rng rng(c.size());
  for (std::size_t i = 0; i < randoms; ++i) {
    const double u = rng.uniform(0.0, total);
    ASSERT_EQ(index.find(u), oracle_find(c, u)) << "u = " << u;
  }
}

TEST(CumulativeIndex, MatchesLowerBoundOnTheHostingTable) {
  // The paper world's hosting table: ~2,750 stubs under Zipf s = 1.05.
  std::vector<double> c;
  double total = 0.0;
  for (std::size_t i = 0; i < 2750; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.05);
    c.push_back(total);
  }
  expect_index_matches_lower_bound(c, 1'000'000);
}

TEST(CumulativeIndex, MatchesLowerBoundOnPlateausAndTinyTables) {
  // Round weights with zero-weight rounds (plateaus), a spike, one entry,
  // a leading zero, and weights many orders of magnitude apart.
  expect_index_matches_lower_bound({1.0, 1.0, 1.0, 51.0, 51.0, 52.0}, 100'000);
  expect_index_matches_lower_bound({0.5}, 10'000);
  expect_index_matches_lower_bound({0.0, 0.0, 3.0}, 10'000);
  expect_index_matches_lower_bound({1e-300, 1e-12, 1.0, 1.0 + 1e-12, 1e12}, 100'000);
}

/// FNV-1a over the catalog's every per-site field (field by field, so
/// padding never enters; the IPv6 presence through the catalog's
/// accessor, mixed in the order the pinned digests fix), then every
/// relocation record in site-id order.
std::uint64_t catalog_digest(const SiteCatalog& cat) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  auto mix_f = [&mix](float f) { mix(std::bit_cast<std::uint32_t>(f), 4); };
  auto mix_v6 = [&mix](const ip::Ipv6Address& a) {
    for (std::uint8_t b : a.bytes()) mix(b, 1);
  };
  for (const Site& s : cat.sites()) {
    const V6Presence v6 = cat.v6_presence(s);
    mix(s.id, 4);
    mix(s.rank, 4);
    mix(s.v4_as, 4);
    mix(v6.as, 4);
    mix(s.v4_addr.value(), 4);
    mix_v6(v6.addr);
    mix(s.v6_from_round, 4);
    mix(s.v6_until_round, 4);
    mix(s.first_seen_round, 4);
    mix_f(s.page_kb);
    mix_f(v6.page_ratio);
    mix_f(s.server_rate_kBps);
    mix_f(v6.server_factor);
    mix(s.step_round, 4);
    mix_f(s.step_factor);
    mix(s.step_from_path_change ? 1 : 0, 1);
    mix_f(s.trend_per_round);
    mix(s.w6d_participant ? 1 : 0, 1);
    mix(s.from_dns_cache ? 1 : 0, 1);
  }
  for (const Site& s : cat.sites()) {
    const Hosting* r = cat.relocation(s.id);
    if (r == nullptr) continue;
    mix(s.id, 4);
    mix(r->v4_as, 4);
    mix(r->v4_addr.value(), 4);
    mix(r->v6_as, 4);
    mix_v6(r->v6_addr);
  }
  return h;
}

// The study goldens see a catalog change only through the CSVs, and only
// at seed 2011. These digests pin the catalog bytes themselves, at two
// seeds, and the same bytes whatever the world's build_threads.
TEST(SiteCatalog, GenerateBytesPinned) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t digest;
  };
  for (const Case& c : {Case{2011, 0x952a7a9a17544ca5ULL}, Case{5, 0x67044ee69fd13f20ULL}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      scenario::WorldSpec spec = scenario::paper_spec(c.seed, 0.1);
      spec.build_threads = threads;
      const core::World world = scenario::build_world(spec);
      EXPECT_GT(world.catalog.relocations().size(), 0u);
      EXPECT_EQ(catalog_digest(world.catalog), c.digest)
          << "seed " << c.seed << ", build_threads " << threads << ", "
          << world.catalog.size() << " sites: 0x" << std::hex
          << catalog_digest(world.catalog);
    }
  }
}

TEST(Site, ServerMultiplierStepAndTrend) {
  Site s;
  s.first_seen_round = 0;
  s.step_round = 10;
  s.step_factor = 0.5f;
  EXPECT_DOUBLE_EQ(s.server_multiplier_at(9), 1.0);
  EXPECT_DOUBLE_EQ(s.server_multiplier_at(10), 0.5);
  Site t;
  t.trend_per_round = 0.01f;
  // trend_per_round is a float; allow for its representation error.
  EXPECT_NEAR(t.server_multiplier_at(10), std::pow(1.01, 10), 1e-6);
}

}  // namespace
}  // namespace v6mon::web
