#pragma once

#include <string>
#include <vector>

#include "analysis/as_level.h"
#include "analysis/assessment.h"
#include "analysis/classify.h"
#include "core/results.h"
#include "core/world.h"

namespace v6mon::analysis {

/// Everything the table builders need about one vantage point's campaign.
struct VpReport {
  std::string name;
  /// Read-only window onto the VP's observations (in-memory store or
  /// replayed spool — the table builders cannot tell the difference).
  core::ObservationView view;

  /// One record per assessed site, in ascending site order. Readers
  /// filter it in place: kept or removed by `outcome`, the Fig. 4
  /// category by category_of.
  std::vector<SiteAssessment> assessments;

  std::vector<AsPerf> sp_ases;  ///< SP destination-AS evaluation (Table 8).
  std::vector<AsPerf> dp_ases;  ///< DP destination-AS evaluation (Table 11).

  /// Kept sites per category (Table 4).
  [[nodiscard]] CategoryCounts kept_counts() const;
};

/// Run the full Fig. 4 pipeline over one vantage point's observations
/// (the view's backing store must be finalized). A finalized ResultsDb
/// converts implicitly. `pool` fans the per-site sanitization out over
/// site blocks (see assess_sites); null runs it serially.
[[nodiscard]] VpReport analyze_vp(const std::string& name, core::ObservationView view,
                                  const AssessmentParams& ap = {},
                                  const AsLevelParams& lp = {},
                                  core::ThreadPool* pool = nullptr);

/// Analyze the AS_PATH-capable vantage points of a world in one call.
/// `views[i]` pairs with `world.vantage_points[i]`; VPs without AS_PATH
/// are skipped (they cannot feed the path-based methodology). The VPs,
/// and each VP's sanitization under them, run on a pool of `threads`
/// workers (0 = one per hardware thread); 1 builds no pool and runs
/// serially. The reports, in world order, do not depend on it
/// (analyze_vp with a null pool is the serial reference). With metrics
/// on, the reports' assessment and AsPerf records are added, by size, to
/// the `mem.report_bytes` counter.
[[nodiscard]] std::vector<VpReport> analyze_world(
    const core::World& world, const std::vector<core::ObservationView>& views,
    const AssessmentParams& ap = {}, const AsLevelParams& lp = {},
    std::size_t threads = 0);

}  // namespace v6mon::analysis
