#include "analysis/as_level.h"

#include <algorithm>
#include <cmath>

#include "analysis/report.h"
#include "util/stats.h"

namespace v6mon::analysis {

std::vector<AsPerf> evaluate_dest_ases(const std::vector<SiteAssessment>& assessments,
                                       Category category,
                                       const AsLevelParams& params) {
  std::map<topo::Asn, std::vector<const SiteAssessment*>> by_as;
  for (const SiteAssessment& a : assessments) {
    if (a.outcome == SiteOutcome::kKept && category_of(a) == category) {
      by_as[a.v4_origin].push_back(&a);
    }
  }

  std::vector<AsPerf> out;
  out.reserve(by_as.size());
  for (const auto& [asn, members] : by_as) {
    AsPerf perf;
    perf.as = asn;
    perf.sites = members.size();
    double v4 = 0.0, v6 = 0.0;
    for (const SiteAssessment* s : members) {
      v4 += s->v4_speed;
      v6 += s->v6_speed;
      // Site-level comparability: the zero-mode membership test.
      const bool within_band =
          s->v4_speed > 0.0 &&
          std::fabs(s->v6_speed - s->v4_speed) <= params.tolerance * s->v4_speed;
      if (within_band || (!params.symmetric && s->v6_speed >= s->v4_speed)) {
        ++perf.comparable;
      }
    }
    perf.v4_mean = v4 / static_cast<double>(members.size());
    perf.v6_mean = v6 / static_cast<double>(members.size());

    const bool as_similar =
        params.symmetric
            ? std::fabs(perf.v6_mean - perf.v4_mean) <= params.tolerance * perf.v4_mean
            : util::comparable_or_better(perf.v6_mean, perf.v4_mean, params.tolerance);
    if (as_similar) {
      perf.category = AsCategory::kSimilar;
    } else if (perf.comparable > 0) {
      perf.category = AsCategory::kZeroMode;
    } else if (perf.sites < params.small_n) {
      perf.category = AsCategory::kSmallN;
    } else {
      perf.category = AsCategory::kOther;
    }
    out.push_back(std::move(perf));
  }
  return out;
}

AsCategoryShares summarize(const std::vector<AsPerf>& ases) {
  AsCategoryShares s;
  s.total = ases.size();
  for (const AsPerf& a : ases) {
    switch (a.category) {
      case AsCategory::kSimilar: ++s.similar; break;
      case AsCategory::kZeroMode: ++s.zero_mode; break;
      case AsCategory::kSmallN: ++s.small_n; break;
      case AsCategory::kOther: ++s.other; break;
    }
  }
  return s;
}

std::vector<CrossCheckResult> cross_check(const std::vector<VpReport>& vps) {
  // Index AS -> categories per VP.
  std::map<topo::Asn, std::vector<std::pair<std::size_t, AsCategory>>> seen;
  for (std::size_t vp = 0; vp < vps.size(); ++vp) {
    for (const AsPerf& a : vps[vp].sp_ases) {
      seen[a.as].emplace_back(vp, a.category);
    }
  }
  std::vector<CrossCheckResult> out(vps.size());
  for (const auto& [asn, entries] : seen) {
    if (entries.size() < 2) continue;  // no cross-check possible
    bool agree = true;
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].second != entries[0].second) agree = false;
    }
    for (const auto& [vp, cat] : entries) {
      if (agree) ++out[vp].positive;
      else ++out[vp].negative;
    }
  }
  return out;
}

std::set<topo::Asn> good_as_set(const std::vector<VpReport>& vps) {
  std::set<topo::Asn> good;
  for (const VpReport& vp : vps) {
    // Destination ASes judged similar from this VP.
    std::set<topo::Asn> similar_dests;
    for (const AsPerf& a : vp.sp_ases) {
      if (a.category == AsCategory::kSimilar) similar_dests.insert(a.as);
    }
    // Every AS on a v6 path to a similar destination is "good".
    for (const SiteAssessment& a : vp.assessments) {
      if (a.outcome != SiteOutcome::kKept || category_of(a) != Category::kSp) continue;
      if (similar_dests.count(a.v4_origin) == 0) continue;
      if (a.v6_path == core::kNoPath) continue;
      for (topo::Asn hop : vp.view.paths().path(a.v6_path)) good.insert(hop);
    }
  }
  return good;
}

GoodAsCoverage good_as_coverage(const std::vector<SiteAssessment>& assessments,
                                const std::set<topo::Asn>& good,
                                const core::PathRegistry& registry) {
  GoodAsCoverage cov;
  std::set<core::PathId> seen_paths;  // one sample per distinct DP v6 path
  for (const SiteAssessment& a : assessments) {
    if (a.outcome != SiteOutcome::kKept || category_of(a) != Category::kDp) continue;
    if (a.v6_path == core::kNoPath) continue;
    if (!seen_paths.insert(a.v6_path).second) continue;
    const auto& path = registry.path(a.v6_path);
    // Every AS on the path counts, including the destination: a DP
    // destination is itself "good" only when some other vantage point saw
    // it in SP with comparable performance — which is why the paper's
    // 100% bucket is so small.
    if (path.empty()) continue;
    std::size_t good_count = 0;
    for (topo::Asn hop : path) {
      if (good.count(hop)) ++good_count;
    }
    const double frac =
        static_cast<double>(good_count) / static_cast<double>(path.size());
    ++cov.paths;
    if (frac >= 1.0) ++cov.buckets[0];
    else if (frac >= 0.75) ++cov.buckets[1];
    else if (frac >= 0.50) ++cov.buckets[2];
    else if (frac >= 0.25) ++cov.buckets[3];
    else ++cov.buckets[4];
  }
  return cov;
}

}  // namespace v6mon::analysis
