#include "analysis/classify.h"

#include "util/contracts.h"

namespace v6mon::analysis {

std::optional<Category> category_of(const SiteAssessment& a) {
  if (a.v4_origin == topo::kNoAs || a.v6_origin == topo::kNoAs) return std::nullopt;
  Category c = Category::kDl;
  if (a.v4_origin == a.v6_origin) {
    // Path ids come from one shared registry per vantage point, so id
    // equality is sequence equality.
    c = (a.v4_path == a.v6_path && a.v4_path != core::kNoPath) ? Category::kSp
                                                                : Category::kDp;
    if (a.v4_path == core::kNoPath && a.v6_path == core::kNoPath) {
      // Both local to the vantage point's AS: identical (empty) paths.
      c = Category::kSp;
    }
    // SL sites (same AS) split exactly into SP ∪ DP; a DL label here
    // would contradict the equal-origin branch we are in.
    V6MON_ASSERT(c == Category::kSp || c == Category::kDp,
                 "same-origin site must be SP or DP");
  }
  V6MON_ENSURE(a.v4_origin != topo::kNoAs, "classified sites carry a destination AS");
  return c;
}

}  // namespace v6mon::analysis
