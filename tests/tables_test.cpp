#include "analysis/tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "core/campaign.h"
#include "core/thread_pool.h"
#include "core/world_timeline.h"
#include "scenario/evolution.h"
#include "scenario/paper.h"
#include "topo/address_plan.h"
#include "topo/generator.h"

namespace v6mon::analysis {
namespace {

/// One shared small paper world + campaign for all table tests (built
/// once; the suite asserts structural invariants, not absolute numbers).
struct Study {
  core::World world;
  std::unique_ptr<core::Campaign> campaign;
  std::vector<VpReport> reports;
  std::vector<VpReport> w6d_reports;

  Study() {
    world = scenario::build_paper_world(/*seed=*/77, /*scale=*/0.12);
    core::CampaignConfig cfg = scenario::paper_campaign_config(77);
    cfg.threads = 4;
    cfg.w6d_mini_rounds = 8;
    campaign = std::make_unique<core::Campaign>(world, cfg);
    campaign->run();
    campaign->run_w6d();
    campaign->finalize();
    std::vector<core::ObservationView> views, w6d_views;
    for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
      views.emplace_back(campaign->results(i));
      w6d_views.emplace_back(campaign->w6d_results(i));
    }
    reports = analyze_world(world, views);
    AssessmentParams w6d_params;
    w6d_params.min_rounds = 5;
    w6d_reports = analyze_world(world, w6d_views, w6d_params);
  }
};

Study& study() {
  static Study s;
  return s;
}

TEST(Tables, ReportsCoverAsPathVpsOnly) {
  ASSERT_EQ(study().reports.size(), 4u);  // Penn, Comcast, UPCB, LU
  for (const auto& r : study().reports) {
    EXPECT_TRUE(r.name == "Penn" || r.name == "Comcast" || r.name == "UPCB" ||
                r.name == "LU");
    EXPECT_FALSE(r.assessments.empty());
    EXPECT_EQ(r.assessments.size(), r.kept.size() + r.removed.size());
  }
}

TEST(Tables, Fig1SeriesIsMonotoneAndJumpsAtW6d) {
  const auto series = fig1_series(study().world.catalog, study().world.num_rounds);
  ASSERT_EQ(series.size(), study().world.num_rounds + 1);
  EXPECT_GT(series.back().reachability, series.front().reachability);
  const auto w6d = study().world.w6d_round;
  EXPECT_GT(series[w6d].reachability - series[w6d - 1].reachability, 0.0005);
  // Rendering produces one row per round.
  EXPECT_EQ(fig1_table(series).rows(), series.size());
}

TEST(Tables, Fig3aHigherRanksMoreReachable) {
  const auto buckets = fig3a_buckets(study().world.catalog, study().world.num_rounds);
  ASSERT_EQ(buckets.size(), 6u);
  // Top-1k reachability must clearly exceed the overall list's (the top-10
  // bucket has only 10 sites at this scale — too noisy to assert on).
  EXPECT_GT(buckets[2].reachability, buckets[5].reachability * 2);
  // Bucket populations nest.
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i].sites, buckets[i - 1].sites);
  }
  EXPECT_EQ(fig3a_table(buckets).rows(), 6u);
}

// --- Single-pass figures against the catalog's per-round scans ----------

/// Fig. 3a by its definition: one catalog scan per nested rank bucket.
std::vector<Fig3aBucket> naive_fig3a(const web::SiteCatalog& catalog,
                                     std::uint32_t round) {
  const std::pair<const char*, std::uint32_t> defs[] = {
      {"Top 10", 10},        {"Top 100", 100},         {"Top 1k", 1'000},
      {"Top 10k", 10'000},   {"Top 100k", 100'000},    {"Top 1M", 0xffffffffu}};
  std::vector<Fig3aBucket> out;
  for (const auto& [label, max_rank] : defs) {
    Fig3aBucket b;
    b.label = label;
    std::size_t v6 = 0;
    for (const web::Site& s : catalog.sites()) {
      const std::uint32_t rank = catalog.rank(s);
      if (catalog.from_dns_cache(s) || rank == 0 || rank > max_rank) continue;
      if (!catalog.in_list_at(s, round)) continue;
      ++b.sites;
      if (catalog.dual_stack_at(s, round)) ++v6;
    }
    b.reachability =
        b.sites == 0 ? 0.0 : static_cast<double>(v6) / static_cast<double>(b.sites);
    out.push_back(b);
  }
  return out;
}

/// Fig. 1 at one round by its definition: one scan of every site through
/// the per-site accessors.
Fig1Point naive_fig1(const web::SiteCatalog& catalog, std::uint32_t round) {
  std::size_t listed = 0, v6 = 0;
  for (const web::Site& s : catalog.sites()) {
    if (catalog.from_dns_cache(s) || !catalog.in_list_at(s, round)) continue;
    ++listed;
    if (catalog.dual_stack_at(s, round)) ++v6;
  }
  return {round,
          listed == 0 ? 0.0 : static_cast<double>(v6) / static_cast<double>(listed),
          listed};
}

/// fig1_series and fig3a_buckets must reproduce the reference scans
/// exactly: the same integers, hence bit-identical ratios. The catalog's
/// own listed_at / reachability_at must agree with the scans too.
void expect_figures_match_scans(const web::SiteCatalog& catalog,
                                std::uint32_t num_rounds) {
  const auto series = fig1_series(catalog, num_rounds);
  ASSERT_EQ(series.size(), num_rounds + 1);
  for (std::uint32_t r = 0; r <= num_rounds; ++r) {
    const Fig1Point want = naive_fig1(catalog, r);
    EXPECT_EQ(series[r].round, r);
    EXPECT_EQ(series[r].listed, want.listed) << "round " << r;
    EXPECT_EQ(series[r].reachability, want.reachability) << "round " << r;
    EXPECT_EQ(catalog.listed_at(r), want.listed) << "round " << r;
    EXPECT_EQ(catalog.reachability_at(r), want.reachability) << "round " << r;
  }
  for (std::uint32_t r = 0; r <= num_rounds + 1; ++r) {
    const auto got = fig3a_buckets(catalog, r);
    const auto want = naive_fig3a(catalog, r);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < want.size(); ++b) {
      EXPECT_EQ(got[b].label, want[b].label);
      EXPECT_EQ(got[b].sites, want[b].sites) << want[b].label << " round " << r;
      EXPECT_EQ(got[b].reachability, want[b].reachability)
          << want[b].label << " round " << r;
    }
  }
}

TEST(Tables, SinglePassFiguresMatchScansOnTablesWorld) {
  expect_figures_match_scans(study().world.catalog, study().world.num_rounds);
}

TEST(Tables, SinglePassFiguresMatchScansOnChurnedCatalog) {
  util::Rng rng(11);
  topo::TopologyParams tp;
  tp.num_tier1 = 4;
  tp.num_transit = 20;
  tp.num_stub = 100;
  topo::AsGraph graph = topo::generate_topology(tp, rng);
  topo::assign_addresses(graph, {}, rng);
  web::CatalogParams p;
  p.initial_sites = 1500;
  p.churn_per_round = 30;
  p.num_rounds = 12;
  p.dns_cache_sites = 200;
  p.w6d_round = 6;
  p.w6d_prob_top1k = 0.6;
  p.w6d_prob_other = 0.2;
  p.w6d_keep_prob = 0.0;  // every event-only participant leaves after one round
  const auto catalog = web::SiteCatalog::generate(graph, p, rng);
  // The shapes the difference arrays must get right are all present:
  // late listings, unlisted supplemental sites with AAAA, and one-round
  // [v6_from, v6_until) windows.
  const auto& sites = catalog.sites();
  EXPECT_TRUE(std::any_of(sites.begin(), sites.end(), [&catalog](const web::Site& s) {
    return !catalog.from_dns_cache(s) && catalog.first_seen_round(s) > 0;
  }));
  EXPECT_TRUE(std::any_of(sites.begin(), sites.end(), [&catalog](const web::Site& s) {
    return catalog.from_dns_cache(s) && s.v6_record != web::kNoV6Record;
  }));
  EXPECT_TRUE(std::any_of(sites.begin(), sites.end(), [&catalog](const web::Site& s) {
    const web::V6Presence v6 = catalog.v6_presence(s);
    return v6.from_round != web::kNever && v6.until_round == v6.from_round + 1;
  }));
  expect_figures_match_scans(catalog, static_cast<std::uint32_t>(p.num_rounds));
}

TEST(Tables, SinglePassFiguresMatchScansAfterGrantAaaaEpochs) {
  scenario::WorldSpec spec;
  spec.seed = 1103;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 25;
  spec.topology.num_stub = 120;
  spec.catalog.initial_sites = 2000;
  spec.catalog.churn_per_round = 10;
  spec.catalog.num_rounds = 8;
  spec.w6d_round = 5;
  spec.vantage_points = {{.name = "VP",
                          .type = core::VantagePoint::Type::kAcademic,
                          .region = topo::Region::kNorthAmerica,
                          .start_round = 0,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSameProviders}};
  spec.evolution.enabled = true;
  spec.evolution.delta_rate = 4.0;
  spec.evolution.epoch_interval = 2;
  spec.evolution.max_as_fraction = 0.05;
  spec.evolution.depletion_round = 4;
  core::WorldTimeline timeline = scenario::build_timeline(spec);
  const std::uint32_t last = timeline.world().num_rounds;
  std::size_t granted = 0;
  for (std::uint32_t round = 0; round <= last; ++round) {
    const auto summaries = timeline.advance_to(round);
    for (const core::WorldChangeSummary& summary : summaries) {
      granted += summary.sites_gained_aaaa.size();
    }
    if (!summaries.empty()) expect_figures_match_scans(timeline.world().catalog, last);
  }
  EXPECT_GT(granted, 0u);
}

// --- Analysis thread invariance ------------------------------------------

void expect_same_reports(const std::vector<VpReport>& a, const std::vector<VpReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].assessments, b[i].assessments) << a[i].name;
    EXPECT_EQ(a[i].kept, b[i].kept) << a[i].name;
    EXPECT_EQ(a[i].removed, b[i].removed) << a[i].name;
    EXPECT_EQ(a[i].kept_classified, b[i].kept_classified) << a[i].name;
    EXPECT_EQ(a[i].removed_classified, b[i].removed_classified) << a[i].name;
    EXPECT_EQ(a[i].sp_ases, b[i].sp_ases) << a[i].name;
    EXPECT_EQ(a[i].dp_ases, b[i].dp_ases) << a[i].name;
  }
}

/// Assessments come back in site_ids() order, whatever the pool did.
void expect_site_order(const std::vector<VpReport>& reports) {
  for (const VpReport& r : reports) {
    const std::vector<std::uint32_t>& ids = r.view.site_ids();
    ASSERT_EQ(r.assessments.size(), ids.size()) << r.name;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      ASSERT_EQ(r.assessments[k].site, ids[k]) << r.name << " slot " << k;
    }
  }
}

std::vector<core::ObservationView> regular_views(const core::World& world,
                                                 const core::Campaign& campaign) {
  std::vector<core::ObservationView> views;
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    views.emplace_back(campaign.results(i));
  }
  return views;
}

/// analyze_vp over every AS_PATH-capable VP, as analyze_world pairs them;
/// a null pool is the serial reference.
std::vector<VpReport> analyze_each(const core::World& world,
                                   const std::vector<core::ObservationView>& views,
                                   core::ThreadPool* pool) {
  std::vector<VpReport> out;
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    if (!world.vantage_points[i].has_as_path) continue;
    out.push_back(analyze_vp(world.vantage_points[i].name, views[i], {}, {}, pool));
  }
  return out;
}

void expect_pool_invariant(const core::World& world,
                           const std::vector<core::ObservationView>& views,
                           const std::vector<VpReport>& serial) {
  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    core::ThreadPool pool(threads);
    const auto pooled = analyze_each(world, views, &pool);
    expect_site_order(pooled);
    expect_same_reports(pooled, serial);
  }
}

TEST(Tables, AnalysisIsThreadInvariantOnTablesWorld) {
  const auto views = regular_views(study().world, *study().campaign);
  const auto serial = analyze_each(study().world, views, nullptr);
  expect_site_order(serial);
  expect_same_reports(serial, study().reports);  // analyze_world's own pool
  expect_pool_invariant(study().world, views, serial);
}

// analyze_world takes the run's thread count: at 1 it builds no pool and
// runs serially, and its reports equal those at 4 workers (and at the
// two-argument call's one worker per hardware thread).
TEST(Tables, AnalyzeWorldThreadCountDoesNotChangeReports) {
  const auto views = regular_views(study().world, *study().campaign);
  const auto one = analyze_world(study().world, views, {}, {}, 1);
  const auto four = analyze_world(study().world, views, {}, {}, 4);
  ASSERT_EQ(one.size(), 4u);
  expect_site_order(one);
  expect_same_reports(one, four);
  expect_same_reports(one, study().reports);
}

TEST(Tables, AnalysisIsThreadInvariantOnSixteenVpWorld) {
  // Many small views (a few hundred sites per VP): the shape where only
  // small site blocks give the pool anything to share.
  scenario::WorldSpec spec;
  spec.seed = 29;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 30;
  spec.topology.num_stub = 150;
  spec.catalog.initial_sites = 2000;
  spec.catalog.churn_per_round = 2;
  spec.catalog.num_rounds = 40;
  spec.w6d_round = 20;
  const scenario::V6UplinkMode modes[] = {scenario::V6UplinkMode::kSameProviders,
                                          scenario::V6UplinkMode::kSubsetProviders,
                                          scenario::V6UplinkMode::kSeparateProvider};
  for (std::uint32_t i = 0; i < 16; ++i) {
    spec.vantage_points.push_back(
        {.name = "VP-" + std::to_string(i),
         .type = i % 2 == 0 ? core::VantagePoint::Type::kAcademic
                            : core::VantagePoint::Type::kCommercial,
         .region = i % 2 == 0 ? topo::Region::kNorthAmerica : topo::Region::kEurope,
         .start_round = i % 4,
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = false,
         .num_v4_providers = static_cast<int>(1 + i % 2),
         .v6_mode = modes[i % 3]});
  }
  const core::World world = scenario::build_world(spec);
  core::CampaignConfig cfg = scenario::paper_campaign_config(29);
  cfg.threads = 4;
  core::Campaign campaign(world, cfg);
  campaign.run();
  campaign.finalize();
  const auto views = regular_views(world, campaign);
  const auto serial = analyze_each(world, views, nullptr);
  ASSERT_EQ(serial.size(), 16u);
  for (const VpReport& r : serial) EXPECT_GT(r.assessments.size(), 100u) << r.name;
  expect_site_order(serial);
  expect_pool_invariant(world, views, serial);
}

// analyze_world fans its VPs out over the pool, so a world with more
// AS_PATH VPs than workers — shaped like the multi-VP study: 16 VPs over
// a 250-site catalog, many rounds — gives the same reports at 1 and 4
// threads as analyze_vp run one VP at a time.
TEST(Tables, AnalyzeWorldThreadCountDoesNotChangeManyVpReports) {
  scenario::WorldSpec spec;
  spec.seed = 31;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 30;
  spec.topology.num_stub = 150;
  spec.catalog.initial_sites = 250;
  spec.catalog.churn_per_round = 1;
  spec.catalog.num_rounds = 200;
  spec.w6d_round = 100;
  const scenario::V6UplinkMode modes[] = {scenario::V6UplinkMode::kSameProviders,
                                          scenario::V6UplinkMode::kSubsetProviders,
                                          scenario::V6UplinkMode::kSeparateProvider};
  const topo::Region regions[] = {topo::Region::kNorthAmerica, topo::Region::kEurope,
                                  topo::Region::kAsia};
  for (std::uint32_t i = 0; i < 16; ++i) {
    spec.vantage_points.push_back(
        {.name = "VP-" + std::to_string(i),
         .type = i % 2 == 0 ? core::VantagePoint::Type::kAcademic
                            : core::VantagePoint::Type::kCommercial,
         .region = regions[i % 3],
         .start_round = i % 4,
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = i % 4 == 0,
         .num_v4_providers = static_cast<int>(1 + i % 2),
         .v6_mode = modes[i % 3]});
  }
  const core::World world = scenario::build_world(spec);
  core::CampaignConfig cfg = scenario::paper_campaign_config(31);
  cfg.threads = 4;
  core::Campaign campaign(world, cfg);
  campaign.run();
  campaign.finalize();
  const auto views = regular_views(world, campaign);
  const auto serial = analyze_each(world, views, nullptr);
  ASSERT_EQ(serial.size(), 16u);
  for (const VpReport& r : serial) EXPECT_FALSE(r.kept_classified.empty()) << r.name;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const auto reports = analyze_world(world, views, {}, {}, threads);
    expect_site_order(reports);
    expect_same_reports(reports, serial);
  }
}

TEST(Tables, Fig3bSamplesComparable) {
  const VpReport* penn = nullptr;
  for (const auto& r : study().reports) {
    if (r.name == "Penn") penn = &r;
  }
  ASSERT_NE(penn, nullptr);
  const auto f = fig3b_sample_bias(*penn, study().world.catalog);
  EXPECT_GT(f.all_n, f.top_list_n);  // the supplement adds sites
  EXPECT_GT(f.top_list_n, 0u);
  // The paper's point: both samples agree closely on how often IPv6 wins.
  EXPECT_NEAR(f.top_list_v6_faster, f.all_sites_v6_faster, 0.10);
  EXPECT_EQ(fig3b_table(f).rows(), 2u);
}

TEST(Tables, Table2ProfilesInvariants) {
  const auto t = table2_profiles(study().reports);
  ASSERT_EQ(t.cols.size(), 5u);  // 4 VPs + All
  const auto& all = t.cols.back();
  EXPECT_EQ(all.vp, "All");
  for (std::size_t i = 0; i + 1 < t.cols.size(); ++i) {
    const auto& c = t.cols[i];
    EXPECT_GE(c.sites_total, c.sites_kept);
    EXPECT_GT(c.sites_kept, 0u);
    // More v4 destinations than v6 destinations (DL splits + 6to4).
    EXPECT_GE(c.crossed_v4, c.dest_ases_v4);
    EXPECT_GE(c.crossed_v6, c.dest_ases_v6);
    // v6 topology is sparser everywhere in this era.
    EXPECT_LT(c.crossed_v6, c.crossed_v4);
    // The union column dominates each VP.
    EXPECT_GE(all.dest_ases_v4, c.dest_ases_v4);
    EXPECT_GE(all.crossed_v6, c.crossed_v6);
  }
  EXPECT_EQ(table2_render(t).rows(), 6u);
}

/// Table 2's counts as ordered sets of ASNs, the oracle for
/// table2_profiles' dense marks.
Table2 table2_with_sets(const std::vector<VpReport>& vps) {
  Table2 out;
  std::set<topo::Asn> all[4];
  for (const VpReport& vp : vps) {
    std::set<topo::Asn> s[4];  // dest v4, dest v6, crossed v4, crossed v6
    Table2Col col;
    col.vp = vp.name;
    for (const SiteAssessment& a : vp.assessments) {
      if (a.rounds_measured == 0) continue;
      ++col.sites_total;
      if (a.v4_origin != topo::kNoAs) {
        s[0].insert(a.v4_origin);
        s[2].insert(a.v4_origin);
      }
      if (a.v6_origin != topo::kNoAs) {
        s[1].insert(a.v6_origin);
        s[3].insert(a.v6_origin);
      }
      if (a.v4_path != core::kNoPath) {
        for (topo::Asn hop : vp.view.paths().path(a.v4_path)) s[2].insert(hop);
      }
      if (a.v6_path != core::kNoPath) {
        for (topo::Asn hop : vp.view.paths().path(a.v6_path)) s[3].insert(hop);
      }
    }
    col.sites_kept = vp.kept.size();
    col.dest_ases_v4 = s[0].size();
    col.dest_ases_v6 = s[1].size();
    col.crossed_v4 = s[2].size();
    col.crossed_v6 = s[3].size();
    out.cols.push_back(col);
    for (int i = 0; i < 4; ++i) all[i].insert(s[i].begin(), s[i].end());
  }
  Table2Col all_col;
  all_col.vp = "All";
  all_col.dest_ases_v4 = all[0].size();
  all_col.dest_ases_v6 = all[1].size();
  all_col.crossed_v4 = all[2].size();
  all_col.crossed_v6 = all[3].size();
  out.cols.push_back(all_col);
  return out;
}

// Randomized reports: unmeasured sites, missing origins and paths, hops
// repeated within and across vantage points, and ASNs sparse over a wide
// range. The dense marks must count exactly what ordered sets count, and
// render the same table.
TEST(Tables, Table2MarksMatchOrderedSets) {
  util::Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto max_asn = static_cast<std::uint32_t>(rng.uniform_u64(1, 5'000));
    std::deque<core::ResultsDb> dbs;
    std::vector<VpReport> reports(rng.uniform_u64(1, 5));
    for (std::size_t v = 0; v < reports.size(); ++v) {
      core::ResultsDb& db = dbs.emplace_back();
      VpReport& r = reports[v];
      r.name = "VP" + std::to_string(v);
      std::vector<core::PathId> paths;
      const std::uint64_t num_paths = rng.uniform_u64(0, 40);
      for (std::uint64_t p = 0; p < num_paths; ++p) {
        std::vector<topo::Asn> hops(rng.uniform_u64(1, 8));
        for (topo::Asn& h : hops) h = rng.uniform_u32(0, max_asn);
        paths.push_back(db.paths().intern(hops));
      }
      const auto pick_path = [&] {
        return paths.empty() || rng.chance(0.2) ? core::kNoPath : paths[rng.index(paths.size())];
      };
      const auto pick_origin = [&] {
        return rng.chance(0.1) ? topo::kNoAs : rng.uniform_u32(0, max_asn);
      };
      const std::uint64_t sites = rng.uniform_u64(0, 300);
      for (std::uint64_t i = 0; i < sites; ++i) {
        SiteAssessment a;
        a.site = static_cast<std::uint32_t>(i);
        a.rounds_measured = rng.chance(0.15) ? 0 : rng.uniform_u64(1, 30);
        a.v4_origin = pick_origin();
        a.v6_origin = pick_origin();
        a.v4_path = pick_path();
        a.v6_path = pick_path();
        r.assessments.push_back(a);
        if (a.rounds_measured > 0 && rng.chance(0.7)) r.kept.push_back(a);
      }
      r.view = db;
    }
    const Table2 got = table2_profiles(reports);
    const Table2 want = table2_with_sets(reports);
    ASSERT_EQ(got.cols.size(), want.cols.size());
    for (std::size_t c = 0; c < got.cols.size(); ++c) {
      SCOPED_TRACE(want.cols[c].vp);
      EXPECT_EQ(got.cols[c].vp, want.cols[c].vp);
      EXPECT_EQ(got.cols[c].sites_total, want.cols[c].sites_total);
      EXPECT_EQ(got.cols[c].sites_kept, want.cols[c].sites_kept);
      EXPECT_EQ(got.cols[c].dest_ases_v4, want.cols[c].dest_ases_v4);
      EXPECT_EQ(got.cols[c].dest_ases_v6, want.cols[c].dest_ases_v6);
      EXPECT_EQ(got.cols[c].crossed_v4, want.cols[c].crossed_v4);
      EXPECT_EQ(got.cols[c].crossed_v6, want.cols[c].crossed_v6);
    }
    EXPECT_EQ(table2_render(got).render(), table2_render(want).render());
  }
}

TEST(Tables, Table3AccountsForAllRemovals) {
  const auto rows = table3_sanitization(study().reports);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const std::size_t total =
        r.insufficient + r.step_up + r.step_down + r.trend_up + r.trend_down;
    EXPECT_EQ(total, study().reports[i].removed.size()) << r.vp;
    EXPECT_LE(r.step_up_path_change, r.step_up);
    EXPECT_LE(r.step_down_path_change, r.step_down);
    // The catalog injects both steps and trends; expect some of each kind
    // in aggregate (per VP they can be zero at this scale).
  }
  EXPECT_EQ(table3_render(rows).rows(), 4u);
}

TEST(Tables, Table4MatchesCategoryCounts) {
  const auto rows = table4_classification(study().reports);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto counts = study().reports[i].kept_counts();
    EXPECT_EQ(rows[i].dl, counts.dl);
    EXPECT_EQ(rows[i].sp, counts.sp);
    EXPECT_EQ(rows[i].dp, counts.dp);
    EXPECT_EQ(rows[i].dl + rows[i].sp + rows[i].dp,
              study().reports[i].kept_classified.size());
  }
  // The paper's Table 4 shape: Penn is DP-dominated, and the parity VPs
  // (UPCB/LU) have a far higher SP share than Penn.
  const auto sp_share = [](const Table4Row& r) {
    return static_cast<double>(r.sp) / static_cast<double>(r.sp + r.dp);
  };
  const Table4Row* penn = &rows[0];
  EXPECT_GT(penn->dp, penn->sp * 3);
  for (const auto& r : rows) {
    if (r.vp == "UPCB" || r.vp == "LU") {
      EXPECT_GT(sp_share(r), 2.0 * sp_share(*penn)) << r.vp;
    }
  }
}

TEST(Tables, Table5OnlyCountsTransitionRemovals) {
  const auto rows = table5_removed_bias(study().reports);
  const auto t3 = table3_sanitization(study().reports);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t table5_total = rows[i].sp_good + rows[i].sp_bad +
                                     rows[i].dp_good + rows[i].dp_bad +
                                     rows[i].dl_good + rows[i].dl_bad;
    const std::size_t transitions =
        t3[i].step_up + t3[i].step_down + t3[i].trend_up + t3[i].trend_down;
    // Classified transition-removals can be fewer than transitions (some
    // lack origin info) but never more.
    EXPECT_LE(table5_total, transitions);
  }
  EXPECT_EQ(table5_render(rows).rows(), 6u);
}

TEST(Tables, Table6DlFavorsV4) {
  const auto rows = table6_dl_perf(study().reports);
  for (const auto& r : rows) {
    if (r.sites < 20) continue;
    EXPECT_GT(r.pct_v4_ge_v6, 0.6) << r.vp;
    EXPECT_GT(r.v4_perf, r.v6_perf) << r.vp;
  }
  EXPECT_EQ(table6_render(rows).rows(), 4u);
}

TEST(Tables, Table7TunnelArtifactAtLowHopCounts) {
  const auto rows = table7_hopcount_dldp(study().reports);
  // Site counts per family must equal the DL+DP population.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto counts = study().reports[i].kept_counts();
    std::size_t v4_total = 0, v6_total = 0;
    for (const auto& b : rows[i].v4) v4_total += b.sites;
    for (const auto& b : rows[i].v6) v6_total += b.sites;
    EXPECT_EQ(v4_total, counts.dl + counts.dp);
    EXPECT_EQ(v6_total, counts.dl + counts.dp);
  }
  EXPECT_GT(hopcount_render(rows).rows(), 0u);
}

TEST(Tables, Table9SpPerformanceSimilarPerBucket) {
  const auto rows = table9_hopcount_sp(study().reports);
  for (const auto& r : rows) {
    for (std::size_t b = 0; b < kHopBuckets; ++b) {
      // SP sites share one path: both families have identical bucket counts.
      EXPECT_EQ(r.v4[b].sites, r.v6[b].sites) << r.vp << " bucket " << b;
      if (r.v4[b].sites < 15) continue;
      // And closely matching speeds (H1 at per-hop-count granularity).
      EXPECT_NEAR(r.v6[b].mean_speed / r.v4[b].mean_speed, 1.0, 0.15)
          << r.vp << " bucket " << b;
    }
  }
}

TEST(Tables, Table8And11Shapes) {
  const auto sp = table8_sp(study().reports);
  const auto dp = table11_dp(study().reports);
  ASSERT_EQ(sp.size(), 4u);
  ASSERT_EQ(dp.size(), 4u);
  double sp_sim = 0, sp_tot = 0, dp_sim = 0, dp_tot = 0;
  for (const auto& c : sp) {
    EXPECT_EQ(c.shares.total,
              c.shares.similar + c.shares.zero_mode + c.shares.small_n + c.shares.other);
    sp_sim += static_cast<double>(c.shares.similar);
    sp_tot += static_cast<double>(c.shares.total);
  }
  for (const auto& c : dp) {
    dp_sim += static_cast<double>(c.shares.similar);
    dp_tot += static_cast<double>(c.shares.total);
  }
  ASSERT_GT(sp_tot, 0);
  ASSERT_GT(dp_tot, 0);
  // H1: most SP ASes similar. H2: far fewer DP ASes similar.
  EXPECT_GT(sp_sim / sp_tot, 0.6);
  EXPECT_LT(dp_sim / dp_tot, 0.5 * (sp_sim / sp_tot));
  // Cross-checks mostly agree.
  for (const auto& c : sp) {
    EXPECT_GE(c.xcheck_pos, c.xcheck_neg * 3) << c.vp;
  }
  EXPECT_GT(table8_render(sp).rows(), 0u);
  EXPECT_GT(table11_render(dp).rows(), 0u);
}

TEST(Tables, W6dTables10And12) {
  ASSERT_FALSE(study().w6d_reports.empty());
  const auto sp = table8_sp(study().w6d_reports);
  const auto dp = table11_dp(study().w6d_reports);
  double sp_sim = 0, sp_tot = 0, dp_sim = 0, dp_tot = 0;
  for (const auto& c : sp) {
    sp_sim += static_cast<double>(c.shares.similar);
    sp_tot += static_cast<double>(c.shares.total);
  }
  for (const auto& c : dp) {
    dp_sim += static_cast<double>(c.shares.similar + c.shares.zero_mode);
    dp_tot += static_cast<double>(c.shares.total);
  }
  ASSERT_GT(sp_tot, 0);
  ASSERT_GT(dp_tot, 0);
  // Participants' servers are fully v6-qualified: SP similarity is high.
  EXPECT_GT(sp_sim / sp_tot, 0.7);
  // DP participants fare better than the general DP population (paper:
  // ~50% vs ~10%), but clearly below SP.
  EXPECT_LT(dp_sim / dp_tot, sp_sim / sp_tot);
  EXPECT_GT(table10_render(sp).rows(), 0u);
  EXPECT_GT(table12_render(dp).rows(), 0u);
}

TEST(Tables, Table13GoodAsCoverage) {
  const auto cols = table13_good_as(study().reports);
  ASSERT_EQ(cols.size(), 4u);
  for (const auto& c : cols) {
    if (c.coverage.paths < 20) continue;
    double total = 0.0;
    for (std::size_t b = 0; b < 5; ++b) total += c.coverage.frac(b);
    EXPECT_NEAR(total, 1.0, 1e-9);
    // The paper's key observation: full-good DP paths are a minority (the
    // destination itself must be exonerated from another vantage point).
    // The small test world is generous here; the paper-scale bench shows
    // the sharper split.
    EXPECT_LT(c.coverage.frac(0), 0.7) << c.vp;
  }
  EXPECT_EQ(table13_render(cols).rows(), 6u);
}

}  // namespace
}  // namespace v6mon::analysis
