#include "analysis/assessment.h"

#include <gtest/gtest.h>

#include <set>

#include "core/thread_pool.h"
#include "util/rng.h"

namespace v6mon::analysis {
namespace {

using core::MonitorStatus;
using core::Observation;
using core::ResultsDb;

/// The route (origin, path) in the store's registry.
core::RouteId route(ResultsDb& db, core::PathId path, topo::Asn origin = 7) {
  return db.paths().intern_route(origin, path);
}

/// The pair of two routes in the store's registry.
core::PairId pair(ResultsDb& db, core::RouteId v4, core::RouteId v6) {
  return db.paths().intern_pair(v4, v6);
}

/// Add a measured observation series with given speeds (one per round).
void add_series(ResultsDb& db, std::uint32_t site, const std::vector<double>& v4,
                const std::vector<double>& v6, core::PathId v4_path = 0,
                core::PathId v6_path = 0, topo::Asn origin = 7) {
  for (std::size_t r = 0; r < v4.size(); ++r) {
    Observation o;
    o.site = site;
    o.round = static_cast<std::uint16_t>(r);
    o.status = MonitorStatus::kMeasured;
    o.v4_speed_kBps = static_cast<float>(v4[r]);
    o.v6_speed_kBps = static_cast<float>(v6[r]);
    o.v4_samples = 5;
    o.v6_samples = 5;
    o.route_pair = pair(db, route(db, v4_path, origin), route(db, v6_path, origin));
    db.add(o);
  }
}

std::vector<double> noisy(double mean, std::size_t n, std::uint64_t seed,
                          double sigma = 1.0) {
  util::Rng rng(seed);
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.normal(mean, sigma));
  return out;
}

TEST(Assessment, StableSiteIsKept) {
  ResultsDb db;
  db.paths().intern({1, 7});
  add_series(db, 1, noisy(50.0, 30, 1), noisy(48.0, 30, 2));
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outcome, SiteOutcome::kKept);
  EXPECT_NEAR(out[0].v4_speed, 50.0, 1.0);
  EXPECT_NEAR(out[0].v6_speed, 48.0, 1.0);
  EXPECT_EQ(out[0].rounds_measured, 30u);
  EXPECT_EQ(out[0].v4_origin, 7u);
}

TEST(Assessment, TooFewRoundsIsInsufficient) {
  ResultsDb db;
  db.paths().intern({1, 7});
  add_series(db, 1, noisy(50.0, 3, 1), noisy(48.0, 3, 2));
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outcome, SiteOutcome::kInsufficientSamples);
  // Means still populated for Table 5 style reuse.
  EXPECT_GT(out[0].v4_speed, 0.0);
}

TEST(Assessment, HighNoiseFailsCi) {
  ResultsDb db;
  db.paths().intern({1, 7});
  // Relative sigma 80%: 10 rounds cannot meet a 10% CI.
  add_series(db, 1, noisy(50.0, 8, 1, 40.0), noisy(48.0, 8, 2, 40.0));
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outcome, SiteOutcome::kInsufficientSamples);
}

TEST(Assessment, StepDownDetected) {
  ResultsDb db;
  db.paths().intern({1, 7});
  std::vector<double> v4 = noisy(80.0, 25, 1);
  const auto tail = noisy(30.0, 25, 3);
  v4.insert(v4.end(), tail.begin(), tail.end());
  add_series(db, 1, v4, noisy(78.0, 50, 2));
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outcome, SiteOutcome::kStepDown);
  EXPECT_FALSE(out[0].path_changed_at_step);
}

TEST(Assessment, StepUpWithPathChange) {
  ResultsDb db;
  const core::PathId before = db.paths().intern({1, 7});
  const core::PathId after = db.paths().intern({2, 9, 7});
  std::vector<double> v4;
  std::vector<double> v6;
  for (int r = 0; r < 60; ++r) {
    Observation o;
    o.site = 1;
    o.round = static_cast<std::uint16_t>(r);
    o.status = MonitorStatus::kMeasured;
    const bool late = r >= 30;
    o.v4_speed_kBps = static_cast<float>(late ? 90.0 : 40.0) +
                      static_cast<float>(r % 3);  // mild deterministic noise
    o.v6_speed_kBps = 41.0f;
    o.route_pair = pair(db, route(db, late ? after : before), route(db, before));
    db.add(o);
  }
  (void)v4;
  (void)v6;
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outcome, SiteOutcome::kStepUp);
  EXPECT_TRUE(out[0].path_changed_at_step);
}

TEST(Assessment, TrendDetected) {
  ResultsDb db;
  db.paths().intern({1, 7});
  std::vector<double> v4;
  util::Rng rng(5);
  for (int r = 0; r < 40; ++r) v4.push_back(60.0 + 1.2 * r + rng.normal(0.0, 1.5));
  add_series(db, 1, v4, noisy(60.0, 40, 2));
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outcome, SiteOutcome::kTrendUp);
}

TEST(Assessment, TrendDownOnV6Series) {
  ResultsDb db;
  db.paths().intern({1, 7});
  std::vector<double> v6;
  util::Rng rng(6);
  for (int r = 0; r < 40; ++r) v6.push_back(100.0 - 1.4 * r + rng.normal(0.0, 1.5));
  add_series(db, 1, noisy(60.0, 40, 2), v6);
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outcome, SiteOutcome::kTrendDown);
}

TEST(Assessment, NonMeasuredObservationsIgnored) {
  ResultsDb db;
  db.paths().intern({1, 7});
  add_series(db, 1, noisy(50.0, 20, 1), noisy(48.0, 20, 2));
  Observation bad;
  bad.site = 1;
  bad.round = 99;
  bad.status = MonitorStatus::kV6DownloadFailed;
  db.add(bad);
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rounds_measured, 20u);
  EXPECT_EQ(out[0].outcome, SiteOutcome::kKept);
}

TEST(Assessment, ModalPathWins) {
  ResultsDb db;
  const core::PathId common = db.paths().intern({1, 7});
  const core::PathId rare = db.paths().intern({2, 7});
  for (int r = 0; r < 20; ++r) {
    Observation o;
    o.site = 1;
    o.round = static_cast<std::uint16_t>(r);
    o.status = MonitorStatus::kMeasured;
    o.v4_speed_kBps = 50.0f;
    o.v6_speed_kBps = 49.0f;
    o.route_pair = pair(db, route(db, (r % 7 == 0) ? rare : common), route(db, common));
    db.add(o);
  }
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].v4_path, common);
}

TEST(Assessment, MultipleSitesSortedById) {
  ResultsDb db;
  db.paths().intern({1, 7});
  add_series(db, 9, noisy(50.0, 20, 1), noisy(48.0, 20, 2));
  add_series(db, 3, noisy(50.0, 20, 3), noisy(48.0, 20, 4));
  add_series(db, 6, noisy(50.0, 20, 5), noisy(48.0, 20, 6));
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].site, 3u);
  EXPECT_EQ(out[1].site, 6u);
  EXPECT_EQ(out[2].site, 9u);
}

TEST(Assessment, ModalTieGoesToFirstValueToReachTopCount) {
  // v4 paths A B B A: both values reach two, B first (at the third
  // round). The modal rule keeps B, not the first-seen A; the committed
  // goldens depend on this tie rule.
  ResultsDb db;
  const core::PathId a = db.paths().intern({1, 7});
  const core::PathId b = db.paths().intern({2, 7});
  const core::PathId v4_paths[] = {a, b, b, a};
  for (std::uint16_t r = 0; r < 4; ++r) {
    Observation o;
    o.site = 1;
    o.round = r;
    o.status = MonitorStatus::kMeasured;
    o.v4_speed_kBps = 50.0f;
    o.v6_speed_kBps = 49.0f;
    o.route_pair = pair(db, route(db, v4_paths[r]), route(db, a));
    db.add(o);
  }
  db.finalize();
  const auto out = assess_sites(db, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].v4_path, b);
  EXPECT_EQ(out[0].v6_path, a);
}

TEST(Assessment, PooledMatchesSerialOnEmptyView) {
  core::ThreadPool pool(4);
  ResultsDb db;
  db.finalize();
  EXPECT_TRUE(assess_sites(db, {}, &pool).empty());
}

TEST(Assessment, PooledMatchesSerialOnViewSmallerThanOneBlock) {
  core::ThreadPool pool(4);
  ResultsDb db;
  db.paths().intern({1, 7});
  add_series(db, 9, noisy(50.0, 20, 1), noisy(48.0, 20, 2));
  add_series(db, 3, noisy(50.0, 3, 3), noisy(48.0, 3, 4));
  add_series(db, 6, noisy(50.0, 8, 5, 40.0), noisy(48.0, 8, 6, 40.0));
  db.finalize();
  const auto serial = assess_sites(db, {});
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_EQ(assess_sites(db, {}, &pool), serial);
}

TEST(Assessment, PooledMatchesSerialAcrossManyBlocks) {
  // 37 sites: several full blocks plus a partial last one, with kept,
  // insufficient, step and trend outcomes mixed across them.
  ResultsDb db;
  db.paths().intern({1, 7});
  for (std::uint32_t site = 0; site < 37; ++site) {
    const std::uint64_t seed = 100 + 2 * std::uint64_t{site};
    std::vector<double> v4 = noisy(60.0, 30, seed);
    if (site % 4 == 1) {
      for (std::size_t r = 15; r < v4.size(); ++r) v4[r] *= 0.4;  // step down
    } else if (site % 4 == 2) {
      for (std::size_t r = 0; r < v4.size(); ++r) v4[r] += 1.5 * static_cast<double>(r);
    } else if (site % 4 == 3) {
      v4.resize(3);  // too few rounds
    }
    add_series(db, site * 5, v4, noisy(58.0, v4.size(), seed + 1));
  }
  db.finalize();
  const auto serial = assess_sites(db, {});
  ASSERT_EQ(serial.size(), 37u);
  std::set<SiteOutcome> outcomes;
  for (const SiteAssessment& a : serial) outcomes.insert(a.outcome);
  EXPECT_GE(outcomes.size(), 3u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    core::ThreadPool pool(threads);
    EXPECT_EQ(assess_sites(db, {}, &pool), serial) << threads << " threads";
  }
}

}  // namespace
}  // namespace v6mon::analysis
