#include "analysis/assessment.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "core/thread_pool.h"
#include "util/stats.h"
#include "util/timeseries.h"

namespace v6mon::analysis {

namespace {

/// Most frequent value in a list. On a tie the value that first *reached*
/// the winning count wins, not the first one seen: A B B A gives B (B hits
/// two at index 2, A only at index 3).
template <typename T>
T modal(const std::vector<T>& xs, T none) {
  if (xs.empty()) return none;
  // A site that kept one path all campaign: its value is the only
  // candidate, so the count map is not needed.
  if (std::all_of(xs.begin() + 1, xs.end(), [&xs](const T& x) { return x == xs.front(); })) {
    return xs.front();
  }
  std::unordered_map<T, std::size_t> counts;
  T best = xs.front();
  std::size_t best_n = 0;
  for (const T& x : xs) {
    const std::size_t n = ++counts[x];
    if (n > best_n) {
      best_n = n;
      best = x;
    }
  }
  return best;
}

/// Does the modal path before the change index differ from the modal path
/// after it (in either family)?
bool path_changed_around(const std::vector<core::PathId>& paths, std::size_t at) {
  if (at == 0 || at >= paths.size()) return false;
  std::vector<core::PathId> before(paths.begin(),
                                   paths.begin() + static_cast<std::ptrdiff_t>(at));
  std::vector<core::PathId> after(paths.begin() + static_cast<std::ptrdiff_t>(at),
                                  paths.end());
  return modal(before, core::kNoPath) != modal(after, core::kNoPath);
}

/// Per-site scratch: the measured rounds of one site, reused across the
/// sites of a block so the assessment allocates per block, not per site.
struct Scratch {
  std::vector<double> v4_speeds, v6_speeds;
  std::vector<core::PathId> v4_paths, v6_paths;
  std::vector<topo::Asn> v4_origins, v6_origins;
};

SiteAssessment assess_site(std::uint32_t site_id, const core::ObservationView& view,
                           const AssessmentParams& params, Scratch& sc) {
  SiteAssessment a;
  a.site = site_id;

  // Collect measured rounds.
  sc.v4_speeds.clear();
  sc.v6_speeds.clear();
  sc.v4_paths.clear();
  sc.v6_paths.clear();
  sc.v4_origins.clear();
  sc.v6_origins.clear();
  for (const core::Observation& o : view.series(site_id)) {
    if (o.status != core::MonitorStatus::kMeasured) continue;
    const core::RoutePair pair = view.pair(o.route_pair);
    const core::Route v4 = view.route(pair.v4);
    const core::Route v6 = view.route(pair.v6);
    sc.v4_speeds.push_back(o.v4_speed_kBps);
    sc.v6_speeds.push_back(o.v6_speed_kBps);
    sc.v4_paths.push_back(v4.path);
    sc.v6_paths.push_back(v6.path);
    sc.v4_origins.push_back(v4.origin);
    sc.v6_origins.push_back(v6.origin);
  }
  a.rounds_measured = sc.v4_speeds.size();
  if (a.rounds_measured > 0) {
    util::RunningStats v4, v6;
    for (double s : sc.v4_speeds) v4.add(s);
    for (double s : sc.v6_speeds) v6.add(s);
    a.v4_speed = v4.mean();
    a.v6_speed = v6.mean();
    a.v4_path = modal(sc.v4_paths, core::kNoPath);
    a.v6_path = modal(sc.v6_paths, core::kNoPath);
    a.v4_origin = modal(sc.v4_origins, topo::kNoAs);
    a.v6_origin = modal(sc.v6_origins, topo::kNoAs);
  }

  if (a.rounds_measured < params.min_rounds) {
    a.outcome = SiteOutcome::kInsufficientSamples;
    return a;
  }

  // Sharp transitions (check both families; report the stronger signal).
  const auto step_v4 =
      util::detect_step(sc.v4_speeds, params.step_window, params.step_threshold);
  const auto step_v6 =
      util::detect_step(sc.v6_speeds, params.step_window, params.step_threshold);
  const util::StepTransition* step = nullptr;
  const std::vector<core::PathId>* step_paths = nullptr;
  if (step_v4.direction != util::StepDirection::kNone) {
    step = &step_v4;
    step_paths = &sc.v4_paths;
  }
  if (step_v6.direction != util::StepDirection::kNone &&
      (step == nullptr ||
       std::abs(step_v6.magnitude - 1.0) > std::abs(step->magnitude - 1.0))) {
    step = &step_v6;
    step_paths = &sc.v6_paths;
  }
  if (step != nullptr) {
    a.outcome = step->direction == util::StepDirection::kUp ? SiteOutcome::kStepUp
                                                            : SiteOutcome::kStepDown;
    a.path_changed_at_step =
        path_changed_around(*step_paths, step->change_index) ||
        path_changed_around(step_paths == &sc.v4_paths ? sc.v6_paths : sc.v4_paths,
                            step->change_index);
    return a;
  }

  // Steady trends.
  const auto trend_v4 = util::detect_trend(sc.v4_speeds, params.trend_min_drift);
  const auto trend_v6 = util::detect_trend(sc.v6_speeds, params.trend_min_drift);
  const auto trend = trend_v4 != util::Trend::kNone ? trend_v4 : trend_v6;
  if (trend != util::Trend::kNone) {
    a.outcome =
        trend == util::Trend::kUp ? SiteOutcome::kTrendUp : SiteOutcome::kTrendDown;
    return a;
  }

  // Overall confidence target on both families' across-round means.
  util::RunningStats v4, v6;
  for (double s : sc.v4_speeds) v4.add(s);
  for (double s : sc.v6_speeds) v6.add(s);
  a.outcome = v4.meets_relative_ci(params.ci_rel, params.confidence) &&
                      v6.meets_relative_ci(params.ci_rel, params.confidence)
                  ? SiteOutcome::kKept
                  : SiteOutcome::kInsufficientSamples;
  return a;
}

/// Sites per parallel work item. Small on purpose: a view of a few
/// hundred sites (one VP of a small catalog) must still split into
/// enough blocks to keep every worker busy.
constexpr std::size_t kSiteBlock = 8;

}  // namespace

std::vector<SiteAssessment> assess_sites(core::ObservationView view,
                                         const AssessmentParams& params,
                                         core::ThreadPool* pool) {
  // Each block assesses consecutive site_ids() entries into its own slots
  // of a pre-sized vector, so the output is ascending by site id whatever
  // the schedule.
  const std::vector<std::uint32_t>& ids = view.site_ids();
  std::vector<SiteAssessment> out(ids.size());
  const auto run_block = [&](std::size_t b) {
    Scratch scratch;
    const std::size_t end = std::min(ids.size(), (b + 1) * kSiteBlock);
    for (std::size_t k = b * kSiteBlock; k < end; ++k) {
      out[k] = assess_site(ids[k], view, params, scratch);
    }
  };
  const std::size_t blocks = (ids.size() + kSiteBlock - 1) / kSiteBlock;
  if (pool == nullptr) {
    for (std::size_t b = 0; b < blocks; ++b) run_block(b);
  } else {
    core::parallel_index(*pool, blocks, run_block);
  }
  return out;
}

}  // namespace v6mon::analysis
