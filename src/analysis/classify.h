#pragma once

#include <optional>

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

/// The Fig. 4 category of an assessed site, from its two origin ASes and
/// two AS paths alone. A site has one only when both origins are known
/// (the vantage point had AS_PATH data and both lookups succeeded);
/// otherwise none. Its destination AS is `a.v4_origin` in every category
/// (the common AS of an SP/DP site, the IPv4 AS of a DL site). Readers
/// derive the category wherever they need it: the main analysis from
/// kept sites, Table 5 from removed ones.
[[nodiscard]] std::optional<Category> category_of(const SiteAssessment& a);

/// Count sites per category.
struct CategoryCounts {
  std::size_t dl = 0;
  std::size_t sp = 0;
  std::size_t dp = 0;
};

}  // namespace v6mon::analysis
