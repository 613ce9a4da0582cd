#include "analysis/classify.h"

#include <gtest/gtest.h>

#include "analysis/report.h"

namespace v6mon::analysis {
namespace {

SiteAssessment make(std::uint32_t site, topo::Asn v4_origin, topo::Asn v6_origin,
                    core::PathId v4_path, core::PathId v6_path) {
  SiteAssessment a;
  a.site = site;
  a.outcome = SiteOutcome::kKept;
  a.rounds_measured = 10;
  a.v4_origin = v4_origin;
  a.v6_origin = v6_origin;
  a.v4_path = v4_path;
  a.v6_path = v6_path;
  a.v4_speed = 50.0;
  a.v6_speed = 48.0;
  return a;
}

TEST(Classify, SpDpDlSplit) {
  VpReport r;
  r.assessments = {
      make(1, 7, 7, 3, 3),  // same AS, same path -> SP
      make(2, 7, 7, 0, 1),  // same AS, different path -> DP
      make(3, 7, 9, 0, 1),  // different AS -> DL
  };
  EXPECT_EQ(category_of(r.assessments[0]), Category::kSp);
  EXPECT_EQ(category_of(r.assessments[1]), Category::kDp);
  EXPECT_EQ(category_of(r.assessments[2]), Category::kDl);
  const CategoryCounts counts = r.kept_counts();
  EXPECT_EQ(counts.sp, 1u);
  EXPECT_EQ(counts.dp, 1u);
  EXPECT_EQ(counts.dl, 1u);
}

TEST(Classify, SkipsSitesWithoutOrigins) {
  VpReport r;
  r.assessments = {
      make(1, topo::kNoAs, 7, 0, 0),  // unknown v4 origin
      make(2, 7, topo::kNoAs, 0, 0),  // unknown v6 origin
      make(3, 7, 7, 0, 0),
  };
  EXPECT_EQ(category_of(r.assessments[0]), std::nullopt);
  EXPECT_EQ(category_of(r.assessments[1]), std::nullopt);
  EXPECT_EQ(category_of(r.assessments[2]), Category::kSp);
  const CategoryCounts counts = r.kept_counts();
  EXPECT_EQ(counts.sp + counts.dp + counts.dl, 1u);
}

TEST(Classify, LocalSitesAreSp) {
  // Both presences inside the vantage point's own AS: no AS path at all.
  EXPECT_EQ(category_of(make(1, 7, 7, core::kNoPath, core::kNoPath)), Category::kSp);
}

TEST(Classify, CategoryNames) {
  EXPECT_STREQ(category_name(Category::kDl), "DL");
  EXPECT_STREQ(category_name(Category::kSp), "SP");
  EXPECT_STREQ(category_name(Category::kDp), "DP");
}

}  // namespace
}  // namespace v6mon::analysis
