#pragma once

#include <array>
#include <map>
#include <set>
#include <vector>

#include "analysis/classify.h"
#include "core/results.h"

namespace v6mon::analysis {

struct VpReport;

/// Category of a destination AS after the paper's SP/DP evaluation
/// (Tables 8 and 11 rows):
enum class AsCategory : std::uint8_t {
  kSimilar,   ///< Mean IPv6 perf within tolerance of IPv4, or better.
  kZeroMode,  ///< Worse overall, but >=1 site with comparable v6/v4 perf.
  kSmallN,    ///< Worse, no zero-mode, and too few sites to tell (<4).
  kOther,     ///< Worse, no zero-mode, enough sites (rare by the paper).
};

[[nodiscard]] constexpr const char* as_category_name(AsCategory c) {
  switch (c) {
    case AsCategory::kSimilar: return "similar";
    case AsCategory::kZeroMode: return "zero-mode";
    case AsCategory::kSmallN: return "small-N";
    case AsCategory::kOther: return "other";
  }
  return "?";
}

/// Per-destination-AS aggregation.
struct AsPerf {
  topo::Asn as = topo::kNoAs;
  std::size_t sites = 0;
  double v4_mean = 0.0;  ///< Mean of site means (kbytes/sec).
  double v6_mean = 0.0;
  AsCategory category = AsCategory::kSimilar;
  /// Sites whose own v6/v4 difference is within tolerance: an AS that is
  /// worse overall with at least one of them is zero-mode.
  std::size_t comparable = 0;

  bool operator==(const AsPerf&) const = default;
};

struct AsLevelParams {
  double tolerance = 0.10;   ///< The paper's comparability threshold.
  std::size_t small_n = 4;   ///< "small number of sites (less than four)".
  /// SP evaluation (Table 8) counts "similar *or IPv6 better*"; the DP
  /// evaluation (Table 11) asks whether performance is the *same* within
  /// tolerance — a symmetric band. With the wide spread divergent paths
  /// exhibit, most DP ASes are far off in one direction or the other.
  bool symmetric = false;
};

/// Group the kept sites of one category by destination AS (category_of)
/// and evaluate each AS per the paper's Fig. 4 logic.
[[nodiscard]] std::vector<AsPerf> evaluate_dest_ases(
    const std::vector<SiteAssessment>& assessments, Category category,
    const AsLevelParams& params = {});

/// Summary proportions over a set of evaluated ASes.
struct AsCategoryShares {
  std::size_t total = 0;
  std::size_t similar = 0;
  std::size_t zero_mode = 0;
  std::size_t small_n = 0;
  std::size_t other = 0;

  [[nodiscard]] double frac(std::size_t n) const {
    return total == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(total);
  }
};
[[nodiscard]] AsCategoryShares summarize(const std::vector<AsPerf>& ases);

/// Cross-checks (Table 8, last rows): an AS observed in SP from several
/// vantage points must land in the same category everywhere.
struct CrossCheckResult {
  std::size_t positive = 0;  ///< Same category from every VP that saw it.
  std::size_t negative = 0;  ///< Category disagreement.
};
/// Reads each report's SP evaluation (`sp_ases`). Returns one result per
/// vantage point: how many of *its* ASes were confirmed (+) or
/// contradicted (-) by at least one other VP.
[[nodiscard]] std::vector<CrossCheckResult> cross_check(const std::vector<VpReport>& vps);

/// The "good AS" set: every AS appearing on the IPv6 path of a kept SP
/// site whose destination AS was evaluated as similar — from any vantage
/// point (each report's `sp_ases`, `assessments` and route registry).
/// These ASes demonstrably forward IPv6 as well as IPv4 (H1 evidence).
[[nodiscard]] std::set<topo::Asn> good_as_set(const std::vector<VpReport>& vps);

/// Table 13: distribution of the fraction of known-good ASes on each DP
/// destination's IPv6 path (destination included — it can only be good
/// via cross-VP exoneration). Buckets: 100%, [75,100), [50,75), [25,50),
/// [0,25).
struct GoodAsCoverage {
  std::size_t paths = 0;
  std::array<std::size_t, 5> buckets{};  // index 0 = 100% ... 4 = [0,25)

  [[nodiscard]] double frac(std::size_t b) const {
    return paths == 0 ? 0.0 : static_cast<double>(buckets[b]) / static_cast<double>(paths);
  }
};
/// Runs over the kept DP sites among `assessments`.
[[nodiscard]] GoodAsCoverage good_as_coverage(
    const std::vector<SiteAssessment>& assessments, const std::set<topo::Asn>& good,
    const core::PathRegistry& registry);

}  // namespace v6mon::analysis
