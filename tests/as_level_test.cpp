#include "analysis/as_level.h"

#include <gtest/gtest.h>

#include "analysis/report.h"

namespace v6mon::analysis {
namespace {

/// A kept site whose origins and paths give `cat` under category_of, with
/// destination AS `dest` (its IPv4 origin).
SiteAssessment site(std::uint32_t id, topo::Asn dest, Category cat, double v4,
                    double v6, core::PathId v6_path = core::kNoPath) {
  // An id no test interns: a DP site's IPv4 path differs from its IPv6 one.
  constexpr core::PathId kOtherPath = 999'999;
  SiteAssessment s;
  s.site = id;
  s.outcome = SiteOutcome::kKept;
  s.v4_speed = v4;
  s.v6_speed = v6;
  s.v4_origin = dest;
  s.v6_origin = cat == Category::kDl ? dest + 1 : dest;
  s.v4_path = cat == Category::kDp ? kOtherPath : v6_path;
  s.v6_path = v6_path;
  EXPECT_EQ(category_of(s), cat);
  return s;
}

TEST(EvaluateDestAses, SimilarAs) {
  std::vector<SiteAssessment> sites{
      site(1, 7, Category::kSp, 50.0, 49.0),
      site(2, 7, Category::kSp, 60.0, 57.0),
  };
  const auto out = evaluate_dest_ases(sites, Category::kSp);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].as, 7u);
  EXPECT_EQ(out[0].sites, 2u);
  EXPECT_EQ(out[0].category, AsCategory::kSimilar);
  EXPECT_DOUBLE_EQ(out[0].v4_mean, 55.0);
  EXPECT_DOUBLE_EQ(out[0].v6_mean, 53.0);
}

TEST(EvaluateDestAses, V6BetterIsSimilar) {
  std::vector<SiteAssessment> sites{site(1, 7, Category::kSp, 50.0, 70.0)};
  const auto out = evaluate_dest_ases(sites, Category::kSp);
  EXPECT_EQ(out[0].category, AsCategory::kSimilar);
}

TEST(EvaluateDestAses, ZeroModeWhenOneSiteComparable) {
  // AS mean is bad (v6 far worse) but one site has comparable performance.
  std::vector<SiteAssessment> sites{
      site(1, 7, Category::kSp, 50.0, 20.0),
      site(2, 7, Category::kSp, 50.0, 18.0),
      site(3, 7, Category::kSp, 50.0, 17.0),
      site(4, 7, Category::kSp, 50.0, 48.0),  // the zero-mode member
      site(5, 7, Category::kSp, 50.0, 22.0),
  };
  const auto out = evaluate_dest_ases(sites, Category::kSp);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].category, AsCategory::kZeroMode);
  EXPECT_EQ(out[0].comparable, 1u);
}

TEST(EvaluateDestAses, SmallNWhenFewBadSites) {
  std::vector<SiteAssessment> sites{
      site(1, 7, Category::kSp, 50.0, 20.0),
      site(2, 7, Category::kSp, 50.0, 25.0),
  };
  const auto out = evaluate_dest_ases(sites, Category::kSp);
  EXPECT_EQ(out[0].category, AsCategory::kSmallN);
}

TEST(EvaluateDestAses, OtherWhenManyBadSites) {
  std::vector<SiteAssessment> sites;
  for (std::uint32_t i = 0; i < 6; ++i) {
    sites.push_back(site(i, 7, Category::kSp, 50.0, 20.0));
  }
  const auto out = evaluate_dest_ases(sites, Category::kSp);
  EXPECT_EQ(out[0].category, AsCategory::kOther);
}

TEST(EvaluateDestAses, FiltersByCategory) {
  std::vector<SiteAssessment> sites{
      site(1, 7, Category::kSp, 50.0, 49.0),
      site(2, 8, Category::kDp, 50.0, 30.0),
      site(3, 9, Category::kDl, 50.0, 30.0),
      site(4, 10, Category::kSp, 50.0, 49.0),
  };
  sites[3].outcome = SiteOutcome::kStepUp;  // removed sites are not evaluated
  EXPECT_EQ(evaluate_dest_ases(sites, Category::kSp).size(), 1u);
  EXPECT_EQ(evaluate_dest_ases(sites, Category::kDp).size(), 1u);
  EXPECT_EQ(evaluate_dest_ases(sites, Category::kDl).size(), 1u);
}

TEST(Summarize, Shares) {
  std::vector<AsPerf> ases(10);
  for (std::size_t i = 0; i < 10; ++i) {
    ases[i].category = i < 7   ? AsCategory::kSimilar
                       : i < 9 ? AsCategory::kZeroMode
                               : AsCategory::kSmallN;
  }
  const auto s = summarize(ases);
  EXPECT_EQ(s.total, 10u);
  EXPECT_EQ(s.similar, 7u);
  EXPECT_EQ(s.zero_mode, 2u);
  EXPECT_EQ(s.small_n, 1u);
  EXPECT_DOUBLE_EQ(s.frac(s.similar), 0.7);
  EXPECT_DOUBLE_EQ(AsCategoryShares{}.frac(0), 0.0);
}

TEST(CrossCheck, AgreementsAndDisagreements) {
  AsPerf a7s;
  a7s.as = 7;
  a7s.category = AsCategory::kSimilar;
  AsPerf a7z = a7s;
  a7z.category = AsCategory::kZeroMode;
  AsPerf a8s;
  a8s.as = 8;
  a8s.category = AsCategory::kSimilar;
  AsPerf a9s;
  a9s.as = 9;
  a9s.category = AsCategory::kSimilar;

  // VP0 sees AS7(similar), AS8(similar), AS9(similar).
  // VP1 sees AS7(zero-mode) -> disagreement; AS8(similar) -> agreement.
  // AS9 only seen once -> no cross-check.
  std::vector<VpReport> vps(2);
  vps[0].sp_ases = {a7s, a8s, a9s};
  vps[1].sp_ases = {a7z, a8s};
  const auto checks = cross_check(vps);
  ASSERT_EQ(checks.size(), 2u);
  EXPECT_EQ(checks[0].positive, 1u);  // AS8
  EXPECT_EQ(checks[0].negative, 1u);  // AS7
  EXPECT_EQ(checks[1].positive, 1u);
  EXPECT_EQ(checks[1].negative, 1u);
}

TEST(GoodAsSet, CollectsHopsOfGoodSpPaths) {
  core::ResultsDb db;
  const core::PathId good_path = db.paths().intern({100, 200, 7});
  const core::PathId other_path = db.paths().intern({300, 8});

  AsPerf as7;
  as7.as = 7;
  as7.category = AsCategory::kSimilar;
  AsPerf as8;
  as8.as = 8;
  as8.category = AsCategory::kZeroMode;  // not similar -> not good

  std::vector<VpReport> vps(1);
  vps[0].view = db;
  vps[0].sp_ases = {as7, as8};
  vps[0].assessments = {
      site(1, 7, Category::kSp, 50.0, 49.0, good_path),
      site(2, 8, Category::kSp, 50.0, 20.0, other_path),
  };
  const auto good = good_as_set(vps);
  EXPECT_EQ(good.count(100), 1u);
  EXPECT_EQ(good.count(200), 1u);
  EXPECT_EQ(good.count(7), 1u);
  EXPECT_EQ(good.count(300), 0u);
  EXPECT_EQ(good.count(8), 0u);
}

TEST(GoodAsCoverage, BucketsIncludeDestination) {
  core::PathRegistry reg;
  // good = {1, 2, 96}: AS96 is a DP dest exonerated from another VP.
  const core::PathId fully_good = reg.intern({1, 2, 96});    // 3/3
  const core::PathId transit_good = reg.intern({1, 2, 99});  // 2/3 (dest bad)
  const core::PathId third_good = reg.intern({1, 50, 98});   // 1/3
  const core::PathId none_good = reg.intern({60, 61, 97});   // 0/3
  const std::set<topo::Asn> good{1, 2, 96};

  std::vector<SiteAssessment> dp{
      site(1, 96, Category::kDp, 50.0, 30.0, fully_good),
      site(2, 99, Category::kDp, 50.0, 30.0, transit_good),
      site(3, 98, Category::kDp, 50.0, 30.0, third_good),
      site(4, 97, Category::kDp, 50.0, 30.0, none_good),
      // Duplicate path for another site in the same AS: counted once.
      site(5, 96, Category::kDp, 50.0, 30.0, fully_good),
  };
  const auto cov = good_as_coverage(dp, good, reg);
  EXPECT_EQ(cov.paths, 4u);
  EXPECT_EQ(cov.buckets[0], 1u);  // 100%
  EXPECT_EQ(cov.buckets[2], 1u);  // 2/3 -> [50,75)
  EXPECT_EQ(cov.buckets[3], 1u);  // 1/3 -> [25,50)
  EXPECT_EQ(cov.buckets[4], 1u);  // 0
  EXPECT_DOUBLE_EQ(cov.frac(0), 0.25);
}

TEST(GoodAsCoverage, IgnoresNonDpSites) {
  core::PathRegistry reg;
  const core::PathId direct = reg.intern({99});  // direct: only the dest AS
  std::vector<SiteAssessment> dp{
      site(1, 99, Category::kSp, 50.0, 30.0, direct),
      site(2, 99, Category::kDp, 50.0, 30.0, direct),
  };
  const auto cov = good_as_coverage(dp, {}, reg);
  EXPECT_EQ(cov.paths, 1u);       // the SP site is ignored
  EXPECT_EQ(cov.buckets[4], 1u);  // dest not good -> 0% bucket
}

}  // namespace
}  // namespace v6mon::analysis
