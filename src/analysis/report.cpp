#include "analysis/report.h"

#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace v6mon::analysis {

VpReport analyze_vp(const std::string& name, core::ObservationView view,
                    const AssessmentParams& ap, const AsLevelParams& lp,
                    core::ThreadPool* pool) {
  VpReport r;
  r.name = name;
  r.view = view;
  r.assessments = assess_sites(view, ap, pool);
  r.sp_ases = evaluate_dest_ases(r.assessments, Category::kSp, lp);
  AsLevelParams dp_params = lp;
  dp_params.symmetric = true;  // Table 11 asks for *equal* performance
  r.dp_ases = evaluate_dest_ases(r.assessments, Category::kDp, dp_params);
  return r;
}

CategoryCounts VpReport::kept_counts() const {
  CategoryCounts counts;
  for (const SiteAssessment& a : assessments) {
    if (a.outcome != SiteOutcome::kKept) continue;
    const std::optional<Category> c = category_of(a);
    if (!c) continue;
    switch (*c) {
      case Category::kDl: ++counts.dl; break;
      case Category::kSp: ++counts.sp; break;
      case Category::kDp: ++counts.dp; break;
      default: V6MON_UNREACHABLE("Category enum out of range");
    }
  }
  return counts;
}

std::vector<VpReport> analyze_world(const core::World& world,
                                    const std::vector<core::ObservationView>& views,
                                    const AssessmentParams& ap,
                                    const AsLevelParams& lp, std::size_t threads) {
  const obs::TraceSpan span(obs::Stage::kAnalysis);
  const std::size_t workers = core::resolve_threads(threads);
  std::vector<std::size_t> vps;  // the AS_PATH-capable VPs, in world order
  for (std::size_t i = 0; i < world.vantage_points.size() && i < views.size(); ++i) {
    if (world.vantage_points[i].has_as_path) vps.push_back(i);
  }
  std::vector<VpReport> out(vps.size());
  const auto analyze = [&](std::size_t k, core::ThreadPool* pool) {
    const core::VantagePoint& vp = world.vantage_points[vps[k]];
    out[k] = analyze_vp(vp.name, views[vps[k]], ap, lp, pool);
  };
  if (workers == 1) {
    for (std::size_t k = 0; k < vps.size(); ++k) analyze(k, nullptr);
  } else {
    // One index per VP, each writing its own slot; the VP's site blocks
    // nest on the same pool (parallel_index is deadlock-free nested).
    core::ThreadPool pool(workers);
    core::parallel_index(pool, vps.size(), [&](std::size_t k) { analyze(k, &pool); });
  }
  std::size_t bytes = 0;
  for (const VpReport& r : out) {
    bytes += r.assessments.size() * sizeof(SiteAssessment) +
             (r.sp_ases.size() + r.dp_ases.size()) * sizeof(AsPerf);
  }
  static const obs::MetricId report_bytes = obs::metrics().counter("mem.report_bytes");
  obs::metrics().add(report_bytes, bytes);
  return out;
}

}  // namespace v6mon::analysis
