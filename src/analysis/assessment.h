#pragma once

#include <cstdint>
#include <vector>

#include "core/results.h"

namespace v6mon::core {
class ThreadPool;
}  // namespace v6mon::core

namespace v6mon::analysis {

/// Why a site was kept for — or removed from — the analysis (the paper's
/// Section 5.1 / Table 3 sanitization).
enum class SiteOutcome : std::uint8_t {
  kKept,
  kInsufficientSamples,  ///< Not enough rounds, or CI target unmet (noise).
  kStepUp,               ///< Sharp upward performance transition.
  kStepDown,             ///< Sharp downward performance transition.
  kTrendUp,              ///< Steady upward drift (linear regression).
  kTrendDown,            ///< Steady downward drift.
};

[[nodiscard]] constexpr const char* site_outcome_name(SiteOutcome o) {
  switch (o) {
    case SiteOutcome::kKept: return "kept";
    case SiteOutcome::kInsufficientSamples: return "insufficient";
    case SiteOutcome::kStepUp: return "step-up";
    case SiteOutcome::kStepDown: return "step-down";
    case SiteOutcome::kTrendUp: return "trend-up";
    case SiteOutcome::kTrendDown: return "trend-down";
  }
  return "?";
}

/// Sanitization knobs — the paper's constants.
struct AssessmentParams {
  /// Minimum measured rounds before a site can be assessed at all.
  std::size_t min_rounds = 5;
  /// Overall (across-rounds) confidence target: 95% CI within 10% of mean.
  double ci_rel = 0.10;
  double confidence = 0.95;
  /// Median filter length / magnitude for step detection (footnote 16).
  std::size_t step_window = 11;
  double step_threshold = 0.30;
  /// Minimum total drift for the trend category.
  double trend_min_drift = 0.30;
};

/// Per-(vantage-point, site) summary after sanitization.
struct SiteAssessment {
  std::uint32_t site = 0;
  SiteOutcome outcome = SiteOutcome::kInsufficientSamples;
  std::size_t rounds_measured = 0;
  /// Across-rounds mean download speeds (kbytes/sec); valid whenever
  /// rounds_measured > 0 (including removed sites — Table 5 uses them).
  double v4_speed = 0.0;
  double v6_speed = 0.0;
  /// Modal AS paths / origin ASes over the measured rounds.
  core::PathId v4_path = core::kNoPath;
  core::PathId v6_path = core::kNoPath;
  topo::Asn v4_origin = topo::kNoAs;
  topo::Asn v6_origin = topo::kNoAs;
  /// For step outcomes: the AS path changed at the transition boundary —
  /// the correlation the paper reports ("in some of those cases, this
  /// transition was the result of a path change").
  bool path_changed_at_step = false;

  bool operator==(const SiteAssessment&) const = default;
};

/// Assess every site that has measurement series in the view. The
/// backing store must be finalized (series sorted by round); whether it
/// was ingested in memory or replayed from a spool is invisible here.
/// Output is ordered by ascending site id.
///
/// With a `pool`, blocks of consecutive sites are assessed concurrently
/// (parallel_index); each site's assessment depends on its own series
/// only, so the result is identical to the serial run (`pool` null).
[[nodiscard]] std::vector<SiteAssessment> assess_sites(core::ObservationView view,
                                                       const AssessmentParams& params,
                                                       core::ThreadPool* pool = nullptr);

}  // namespace v6mon::analysis
