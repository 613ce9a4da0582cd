#pragma once

#include <vector>

#include "analysis/assessment.h"

namespace v6mon::analysis {

/// The paper's site categories (Fig. 4):
///  * DL — the IPv4 and IPv6 presences map to *different* ASes (CDN-style
///    split); their paths are not comparable head-to-head.
///  * SP — same AS, and the IPv6 AS path equals the IPv4 AS path: the
///    H1 population (control plane identical, only data plane + server
///    can differ).
///  * DP — same AS but different AS paths: the H2 population (routing is
///    the differing factor).
enum class Category : std::uint8_t { kDl, kSp, kDp };

[[nodiscard]] constexpr const char* category_name(Category c) {
  switch (c) {
    case Category::kDl: return "DL";
    case Category::kSp: return "SP";
    case Category::kDp: return "DP";
  }
  return "?";
}

/// A site with its Fig. 4 category.
struct ClassifiedSite {
  SiteAssessment assessment;
  Category category = Category::kSp;
  /// For SL sites the (common) destination AS; for DL sites the IPv4 AS.
  topo::Asn dest_as = topo::kNoAs;

  bool operator==(const ClassifiedSite&) const = default;
};

/// Classify assessed sites. Only sites with both origins known (i.e. the
/// vantage point had AS_PATH data and both lookups succeeded) can be
/// classified; others are skipped. Pass only kept sites for the main
/// analysis; removed sites go through the same function for Table 5.
[[nodiscard]] std::vector<ClassifiedSite> classify_sites(
    const std::vector<SiteAssessment>& assessments);

/// Count sites per category.
struct CategoryCounts {
  std::size_t dl = 0;
  std::size_t sp = 0;
  std::size_t dp = 0;
};
[[nodiscard]] CategoryCounts count_categories(const std::vector<ClassifiedSite>& sites);

}  // namespace v6mon::analysis
