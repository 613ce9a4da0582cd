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
    EXPECT_EQ(a.v6_presence(a.site(i)).from_round, b.v6_presence(b.site(i)).from_round);
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
    const std::uint32_t rank = cat.rank(s);
    const bool v6 = cat.v6_presence(s).from_round != kNever;
    if (rank >= 1 && rank <= 1000) {
      top1k_v6 += v6 ? 1 : 0;
    } else if (rank > 100'000 || rank == 0) {
      ++rest;
      rest_v6 += v6 ? 1 : 0;
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
      if (!cat.from_dns_cache(s) && cat.in_list_at(s, r) && cat.dual_stack_at(s, r)) ++v6;
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
    if (cat.v6_presence(s).from_round == kNever) continue;
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
    if (cat.v6_presence(s).from_round == kNever) continue;
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
  // The flag lives in the IPv6 presence record, which every participant
  // has; event-only participants close their window after the event.
  std::size_t participants = 0, left = 0, flagged_records = 0;
  for (const Site& s : cat.sites()) {
    const V6Presence v6 = cat.v6_presence(s);
    if (!v6.w6d_participant) continue;
    ++participants;
    ASSERT_NE(s.v6_record, kNoV6Record) << "site " << s.id;
    EXPECT_TRUE(cat.dual_stack_at(s, 15)) << "site " << s.id;
    EXPECT_EQ(v6.server_factor, 1.0f);
    left += v6.until_round == p.w6d_round + 1;
  }
  for (const V6Presence& v6 : cat.v6_records()) flagged_records += v6.w6d_participant;
  EXPECT_GT(participants, 50u);
  EXPECT_EQ(flagged_records, participants);
  EXPECT_GT(left, 0u);
  EXPECT_LT(left, participants);
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
    if (s.v6_record == kNoV6Record) {
      ++v4_only;
      const V6Presence v6 = cat.v6_presence(s);
      EXPECT_EQ(v6.as, s.v4_as);
      EXPECT_EQ(v6.addr, ip::Ipv6Address{});
      EXPECT_EQ(v6.page_ratio, 1.0f);
      EXPECT_EQ(v6.server_factor, 1.0f);
      EXPECT_EQ(v6.from_round, kNever);
      EXPECT_EQ(v6.until_round, kNever);
      EXPECT_FALSE(v6.w6d_participant);
      EXPECT_FALSE(cat.different_location(s));
      for (std::uint32_t r = 0; r <= p.num_rounds; ++r) EXPECT_FALSE(cat.dual_stack_at(s, r));
      continue;
    }
    // Records are appended in site-id order: the k-th site with an AAAA
    // window owns record k, and the record holds the window.
    ASSERT_EQ(s.v6_record, with_aaaa) << "site " << s.id;
    const V6Presence& v6 = cat.v6_records()[s.v6_record];
    EXPECT_NE(v6.from_round, kNever) << "site " << s.id;
    EXPECT_GE(v6.from_round, cat.first_seen_round(s)) << "site " << s.id;
    EXPECT_GT(v6.until_round, v6.from_round) << "site " << s.id;
    EXPECT_TRUE(cat.dual_stack_at(s, v6.from_round)) << "site " << s.id;
    if (v6.from_round > 0) {
      EXPECT_FALSE(cat.dual_stack_at(s, v6.from_round - 1));
    }
    if (v6.until_round != kNever) {
      EXPECT_FALSE(cat.dual_stack_at(s, v6.until_round));
    }
    EXPECT_TRUE(with_aaaa == 0 || s.id > last_owner);
    last_owner = s.id;
    ++with_aaaa;
  }
  EXPECT_EQ(cat.v6_records().size(), with_aaaa);
  EXPECT_GT(with_aaaa, 0u);
  EXPECT_GT(v4_only, with_aaaa);
  EXPECT_EQ(cat.bytes(), cat.size() * sizeof(Site) + with_aaaa * sizeof(V6Presence) +
                             cat.dynamics_records().size() * sizeof(Dynamics) +
                             cat.relocations().size() *
                                 sizeof(std::pair<const std::uint32_t, Hosting>));
}

static_assert(sizeof(Site) == 28, "a site keeps seven 4-byte fields");
static_assert(sizeof(Dynamics) == 16, "a Dynamics record is 13 bytes padded to 16");

/// A site's rank, first listed round and DNS-cache membership as the
/// generation rules state them: the initial list, then churn_per_round
/// entrants per round, then the unranked cache sample.
struct Listing {
  std::uint32_t rank;
  std::uint32_t first_seen;
  bool from_cache;
};
Listing listing_rule(const CatalogParams& p, std::size_t id) {
  const std::size_t ranked = p.initial_sites + p.churn_per_round * p.num_rounds;
  if (id >= ranked) return {0, 0, true};
  const auto rank = static_cast<std::uint32_t>(id + 1);
  if (id < p.initial_sites) return {rank, 0, false};
  std::size_t first = 1;
  for (std::size_t begin = p.initial_sites + p.churn_per_round; id >= begin;
       begin += p.churn_per_round) {
    ++first;
  }
  return {rank, static_cast<std::uint32_t>(first), false};
}

/// The derived listing fields match the generation rules at every site,
/// the listing runs tile the ids in order, and what generation drew from
/// a site's first listed round respects it: the AAAA window and the step
/// open no earlier, and only listed ranked sites took part in W6D.
void expect_listing_matches_rules(const SiteCatalog& cat) {
  const CatalogParams& p = cat.params();
  ASSERT_EQ(cat.size(), p.initial_sites + p.churn_per_round * p.num_rounds + p.dns_cache_sites);
  std::size_t mismatches = 0;
  for (const Site& s : cat.sites()) {
    const Listing want = listing_rule(p, s.id);
    mismatches += cat.rank(s) != want.rank || cat.first_seen_round(s) != want.first_seen ||
                  cat.from_dns_cache(s) != want.from_cache;
    const V6Presence v6 = cat.v6_presence(s);
    if (v6.from_round != kNever) {
      EXPECT_GE(v6.from_round, want.first_seen) << s.id;
    }
    const Dynamics d = cat.dynamics(s);
    if (d.step_round != kNever) {
      EXPECT_GE(d.step_round, want.first_seen + 2) << s.id;
    }
    if (v6.w6d_participant) {
      EXPECT_FALSE(want.from_cache) << s.id;
      EXPECT_LE(want.first_seen, p.w6d_round) << s.id;
    }
  }
  EXPECT_EQ(mismatches, 0u);

  std::uint32_t next = 0;
  std::size_t listed_ranked = 0;
  for (const ListingRun& run : cat.listing_runs()) {
    ASSERT_EQ(run.begin, next);
    ASSERT_LT(run.begin, run.end);
    for (std::uint32_t id = run.begin; id < run.end; ++id) {
      const Listing want = listing_rule(p, id);
      ASSERT_EQ(run.first_seen_round, want.first_seen) << id;
      ASSERT_EQ(run.from_dns_cache, want.from_cache) << id;
    }
    if (!run.from_dns_cache) listed_ranked += run.end - run.begin;
    next = run.end;
  }
  EXPECT_EQ(next, cat.size());
  EXPECT_EQ(listed_ranked, cat.ranked_sites());
  EXPECT_LE(cat.listing_runs().size(), p.num_rounds + 2);
}

TEST(SiteCatalog, DerivedListingMatchesGenerationRules) {
  {
    SCOPED_TRACE("paper_spec(2011, 0.1)");
    const core::World world = scenario::build_world(scenario::paper_spec(2011, 0.1));
    EXPECT_GT(world.catalog.params().churn_per_round, 0u);
    EXPECT_GT(world.catalog.params().dns_cache_sites, 0u);
    expect_listing_matches_rules(world.catalog);
  }
  World w;
  {
    SCOPED_TRACE("multi-VP shape: 250 initial sites, churn 1 over 1,500 rounds");
    CatalogParams p;
    p.initial_sites = 250;
    p.churn_per_round = 1;
    p.num_rounds = 1500;
    p.dns_cache_sites = 0;
    util::Rng rng(12);
    expect_listing_matches_rules(SiteCatalog::generate(w.graph, p, rng));
  }
  {
    SCOPED_TRACE("no churn, with a cache sample");
    CatalogParams p;
    p.initial_sites = 3000;
    p.churn_per_round = 0;
    p.num_rounds = 20;
    p.dns_cache_sites = 700;
    p.w6d_round = 10;
    util::Rng rng(13);
    const SiteCatalog cat = SiteCatalog::generate(w.graph, p, rng);
    expect_listing_matches_rules(cat);
    EXPECT_EQ(cat.listing_runs().size(), 2u);
  }
}

TEST(SiteCatalog, DynamicsRecordsOnlyForSitesWithStepOrTrend) {
  World w;
  util::Rng rng(14);
  CatalogParams p = small_params();
  p.initial_sites = 20'000;
  const auto cat = SiteCatalog::generate(w.graph, p, rng);
  std::size_t with = 0, steps = 0, trends = 0, path_changes = 0;
  for (const Site& s : cat.sites()) {
    const Dynamics d = cat.dynamics(s);
    if (s.dynamics == kNoDynamics) {
      EXPECT_EQ(d.step_round, kNever);
      EXPECT_EQ(d.step_factor, 1.0f);
      EXPECT_EQ(d.trend_per_round, 0.0f);
      EXPECT_FALSE(d.step_from_path_change);
      EXPECT_EQ(cat.relocation(s.id), nullptr) << "site " << s.id;
      for (std::uint32_t r = 0; r <= p.num_rounds; ++r) {
        EXPECT_EQ(cat.server_multiplier_at(s, r), 1.0);
        EXPECT_EQ(cat.hosting_epoch(s, r), 0);
      }
      continue;
    }
    // Records are appended in site-id order, one per site with a step or
    // a trend (never both).
    ASSERT_EQ(s.dynamics, with) << "site " << s.id;
    ++with;
    const bool step = d.step_round != kNever;
    const bool trend = d.trend_per_round != 0.0f;
    EXPECT_NE(step, trend) << "site " << s.id;
    steps += step;
    trends += trend;
    path_changes += d.step_from_path_change;
    EXPECT_TRUE(step || !d.step_from_path_change);
    // A path-change step relocates the site at the step round.
    EXPECT_EQ(cat.relocation(s.id) != nullptr, d.step_from_path_change) << "site " << s.id;
    if (d.step_from_path_change) {
      EXPECT_EQ(cat.hosting_epoch(s, d.step_round - 1), 0);
      EXPECT_EQ(cat.hosting_epoch(s, d.step_round), 1);
    }
  }
  EXPECT_EQ(cat.dynamics_records().size(), with);
  EXPECT_GT(steps, 0u);
  EXPECT_GT(trends, 0u);
  EXPECT_GT(path_changes, 0u);
  EXPECT_LT(with, cat.size() / 4);
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
/// padding never enters; the derived listing fields, the IPv6 presence
/// and the dynamics through the catalog's accessors, mixed in the order
/// the pinned digests fix), then every relocation record in site-id order.
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
    const Dynamics d = cat.dynamics(s);
    mix(s.id, 4);
    mix(cat.rank(s), 4);
    mix(s.v4_as, 4);
    mix(v6.as, 4);
    mix(s.v4_addr.value(), 4);
    mix_v6(v6.addr);
    mix(v6.from_round, 4);
    mix(v6.until_round, 4);
    mix(cat.first_seen_round(s), 4);
    mix_f(s.page_kb);
    mix_f(v6.page_ratio);
    mix_f(s.server_rate_kBps);
    mix_f(v6.server_factor);
    mix(d.step_round, 4);
    mix_f(d.step_factor);
    mix(d.step_from_path_change ? 1 : 0, 1);
    mix_f(d.trend_per_round);
    mix(v6.w6d_participant ? 1 : 0, 1);
    mix(cat.from_dns_cache(s) ? 1 : 0, 1);
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

// The server multiplier of a generated step site and trend site, each
// listed from round 0 and read through the catalog's accessors; a churn
// entrant's trend counts from its first listed round.
TEST(Site, ServerMultiplierStepAndTrend) {
  World w;
  util::Rng rng(16);
  const CatalogParams p = small_params();
  const auto cat = SiteCatalog::generate(w.graph, p, rng);
  const Site* step = nullptr;
  const Site* trend = nullptr;
  const Site* late_trend = nullptr;
  for (const Site& s : cat.sites()) {
    const Dynamics d = cat.dynamics(s);
    const std::uint32_t first = cat.first_seen_round(s);
    if (step == nullptr && first == 0 && d.step_round != kNever) step = &s;
    if (trend == nullptr && first == 0 && d.trend_per_round != 0.0f) trend = &s;
    if (late_trend == nullptr && first > 0 && d.trend_per_round != 0.0f) late_trend = &s;
  }
  ASSERT_NE(step, nullptr);
  ASSERT_NE(trend, nullptr);
  ASSERT_NE(late_trend, nullptr);

  const Dynamics s = cat.dynamics(*step);
  EXPECT_DOUBLE_EQ(cat.server_multiplier_at(*step, s.step_round - 1), 1.0);
  EXPECT_DOUBLE_EQ(cat.server_multiplier_at(*step, s.step_round),
                   static_cast<double>(s.step_factor));
  EXPECT_DOUBLE_EQ(cat.server_multiplier_at(*step, s.step_round + 5),
                   static_cast<double>(s.step_factor));

  const double t = cat.dynamics(*trend).trend_per_round;
  EXPECT_DOUBLE_EQ(cat.server_multiplier_at(*trend, 0), 1.0);
  EXPECT_NEAR(cat.server_multiplier_at(*trend, 10), std::pow(1.0 + t, 10), 1e-12);

  const std::uint32_t first = cat.first_seen_round(*late_trend);
  const double lt = cat.dynamics(*late_trend).trend_per_round;
  EXPECT_DOUBLE_EQ(cat.server_multiplier_at(*late_trend, first), 1.0);
  EXPECT_NEAR(cat.server_multiplier_at(*late_trend, first + 3), std::pow(1.0 + lt, 3), 1e-12);
}

}  // namespace
}  // namespace v6mon::web
