#include "util/timeseries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace v6mon::util {
namespace {

std::vector<double> constant(std::size_t n, double v) {
  return std::vector<double>(n, v);
}

TEST(MedianFilter, ConstantSeriesUnchanged) {
  const auto xs = constant(20, 5.0);
  EXPECT_EQ(median_filter(xs, 11), xs);
}

TEST(MedianFilter, RemovesSpike) {
  auto xs = constant(21, 10.0);
  xs[10] = 1000.0;
  const auto filtered = median_filter(xs, 5);
  for (double v : filtered) EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(MedianFilter, EmptyAndTiny) {
  EXPECT_TRUE(median_filter({}, 3).empty());
  const auto one = median_filter({7.0}, 11);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 7.0);
}

TEST(DetectStep, NoStepOnConstant) {
  const auto r = detect_step(constant(60, 10.0));
  EXPECT_EQ(r.direction, StepDirection::kNone);
}

TEST(DetectStep, NoStepOnMildNoise) {
  Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 80; ++i) xs.push_back(rng.normal(100.0, 5.0));
  const auto r = detect_step(xs);
  EXPECT_EQ(r.direction, StepDirection::kNone);
}

TEST(DetectStep, DetectsUpwardStep) {
  std::vector<double> xs = constant(30, 10.0);
  const auto after = constant(30, 20.0);
  xs.insert(xs.end(), after.begin(), after.end());
  const auto r = detect_step(xs, 11, 0.30);
  EXPECT_EQ(r.direction, StepDirection::kUp);
  EXPECT_NEAR(static_cast<double>(r.change_index), 30.0, 1.0);
  EXPECT_NEAR(r.magnitude, 2.0, 0.1);
}

TEST(DetectStep, DetectsDownwardStep) {
  std::vector<double> xs = constant(30, 100.0);
  const auto after = constant(30, 40.0);
  xs.insert(xs.end(), after.begin(), after.end());
  const auto r = detect_step(xs, 11, 0.30);
  EXPECT_EQ(r.direction, StepDirection::kDown);
  EXPECT_NEAR(r.magnitude, 0.4, 0.05);
}

TEST(DetectStep, IgnoresStepBelowThreshold) {
  std::vector<double> xs = constant(30, 100.0);
  const auto after = constant(30, 115.0);  // +15% < 30% threshold
  xs.insert(xs.end(), after.begin(), after.end());
  const auto r = detect_step(xs, 11, 0.30);
  EXPECT_EQ(r.direction, StepDirection::kNone);
}

TEST(DetectStep, IgnoresShortExcursion) {
  // 4 high samples then back: fewer than the 6 consecutive the paper needs.
  std::vector<double> xs = constant(30, 100.0);
  for (int i = 0; i < 4; ++i) xs.push_back(200.0);
  const auto tail = constant(30, 100.0);
  xs.insert(xs.end(), tail.begin(), tail.end());
  const auto r = detect_step(xs, 11, 0.30);
  EXPECT_EQ(r.direction, StepDirection::kNone);
}

TEST(DetectStep, TooShortSeries) {
  const auto r = detect_step(constant(10, 5.0), 11, 0.30);
  EXPECT_EQ(r.direction, StepDirection::kNone);
}

TEST(DetectStep, NoisyStepStillDetected) {
  Rng rng(2);
  std::vector<double> xs;
  for (int i = 0; i < 40; ++i) xs.push_back(rng.normal(50.0, 2.0));
  for (int i = 0; i < 40; ++i) xs.push_back(rng.normal(100.0, 4.0));
  const auto r = detect_step(xs, 11, 0.30);
  EXPECT_EQ(r.direction, StepDirection::kUp);
  EXPECT_NEAR(static_cast<double>(r.change_index), 40.0, 3.0);
}

TEST(LinearFit, PerfectLine) {
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) ys.push_back(3.0 + 2.0 * i);
  const auto fit = linear_fit(ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LinearFit, FlatLine) {
  const auto fit = linear_fit(constant(15, 4.0));
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
}

TEST(LinearFit, TooFewPoints) {
  const auto fit = linear_fit({1.0, 2.0});
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_EQ(fit.n, 2u);
}

TEST(DetectTrend, NoTrendOnNoise) {
  Rng rng(3);
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) ys.push_back(rng.normal(100.0, 10.0));
  EXPECT_EQ(detect_trend(ys), Trend::kNone);
}

TEST(DetectTrend, DetectsUpwardDrift) {
  Rng rng(4);
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) ys.push_back(100.0 + 1.5 * i + rng.normal(0.0, 3.0));
  EXPECT_EQ(detect_trend(ys), Trend::kUp);
}

TEST(DetectTrend, DetectsDownwardDrift) {
  Rng rng(5);
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) ys.push_back(150.0 - 1.5 * i + rng.normal(0.0, 3.0));
  EXPECT_EQ(detect_trend(ys), Trend::kDown);
}

TEST(DetectTrend, SignificantButTinyDriftIgnored) {
  // Perfectly linear but total drift is only 5% of the mean: the paper's
  // "steady trend" category targets material drifts.
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) ys.push_back(100.0 + 0.1 * i);
  EXPECT_EQ(detect_trend(ys, 0.30), Trend::kNone);
}

TEST(DetectTrend, ShortSeries) {
  EXPECT_EQ(detect_trend({1.0, 2.0, 3.0}), Trend::kNone);
}

TEST(TimeSeries, EmptySeries) {
  const TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.size(), 0u);
  EXPECT_TRUE(ts.rounds().empty());
  EXPECT_TRUE(ts.values().empty());
  EXPECT_DOUBLE_EQ(ts.growth_factor(), 1.0);
}

TEST(TimeSeries, SinglePoint) {
  TimeSeries ts;
  ts.push_back(7, 0.42);
  EXPECT_FALSE(ts.empty());
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.front().round, 7u);
  EXPECT_DOUBLE_EQ(ts.back().value, 0.42);
  // No second point: growth is defined as the neutral factor.
  EXPECT_DOUBLE_EQ(ts.growth_factor(), 1.0);
}

TEST(TimeSeries, OutOfOrderInsertRejected) {
  TimeSeries ts;
  ts.push_back(3, 1.0);
  EXPECT_THROW(ts.push_back(3, 2.0), Error);  // duplicate round
  EXPECT_THROW(ts.push_back(1, 2.0), Error);  // going backwards
  // The failed inserts must not have appended anything.
  ASSERT_EQ(ts.size(), 1u);
  ts.push_back(4, 2.0);
  EXPECT_EQ(ts.size(), 2u);
}

TEST(TimeSeries, ColumnsAndGrowth) {
  TimeSeries ts;
  ts.push_back(0, 10.0);
  ts.push_back(16, 20.0);
  ts.push_back(34, 40.0);
  EXPECT_EQ(ts.rounds(), (std::vector<std::uint32_t>{0, 16, 34}));
  EXPECT_EQ(ts.values(), (std::vector<double>{10.0, 20.0, 40.0}));
  EXPECT_DOUBLE_EQ(ts.growth_factor(), 4.0);
}

TEST(TimeSeries, GrowthFromZeroFront) {
  TimeSeries ts;
  ts.push_back(0, 0.0);
  ts.push_back(1, 5.0);
  EXPECT_DOUBLE_EQ(ts.growth_factor(), 1.0);
}

// detect_step as it was first written: the trailing median re-selected
// with nth_element over a copy of the window at every index.
StepTransition detect_step_reference(const std::vector<double>& xs, std::size_t window,
                                     double threshold) {
  StepTransition result;
  const std::size_t need = window / 2 + 1;
  if (xs.size() < window + need) return result;
  std::vector<double> buf;
  const auto trailing_median = [&](std::size_t i) {
    buf.assign(xs.begin() + static_cast<std::ptrdiff_t>(i - window),
               xs.begin() + static_cast<std::ptrdiff_t>(i));
    std::nth_element(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(window / 2),
                     buf.end());
    return buf[window / 2];
  };
  std::size_t run = 0;
  int run_dir = 0;
  std::size_t run_start = 0;
  double base_at_run_start = 0.0;
  for (std::size_t i = window; i < xs.size(); ++i) {
    const double base = (run == 0) ? trailing_median(i) : base_at_run_start;
    int dir = 0;
    if (base > 0.0) {
      if (xs[i] > base * (1.0 + threshold)) dir = +1;
      else if (xs[i] < base * (1.0 - threshold)) dir = -1;
    }
    if (dir != 0 && dir == run_dir) {
      ++run;
    } else if (dir != 0) {
      run_dir = dir;
      run = 1;
      run_start = i;
      base_at_run_start = trailing_median(i);
    } else {
      run = 0;
      run_dir = 0;
    }
    if (run >= need) {
      result.direction = run_dir > 0 ? StepDirection::kUp : StepDirection::kDown;
      result.change_index = run_start;
      RunningStats after;
      for (std::size_t j = run_start; j < xs.size(); ++j) after.add(xs[j]);
      result.magnitude = base_at_run_start > 0.0 ? after.mean() / base_at_run_start : 1.0;
      return result;
    }
  }
  return result;
}

// The sliding sorted window must pick the same medians as nth_element.
// Series drawn from a handful of levels tie often, short excursions open
// and abandon candidate runs, and regime shifts complete them; lengths
// sit around the shortest series that can hold a step.
TEST(DetectStep, MatchesNthElementReference) {
  Rng rng(2011);
  const double levels[] = {0.0, 40.0, 70.0, 100.0, 100.0, 100.0, 130.0, 160.0};
  std::size_t steps = 0;
  for (const std::size_t window : {std::size_t{3}, std::size_t{5}, std::size_t{11}}) {
    const std::size_t shortest = window + window / 2 + 1;
    for (std::size_t len = shortest - 2; len <= shortest + 12; ++len) {
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> xs(len);
        double regime = 1.0;
        for (double& x : xs) {
          if (rng.chance(0.05)) regime = rng.chance(0.5) ? 2.0 : 0.5;
          x = levels[rng.index(std::size(levels))] * regime;
        }
        const StepTransition want = detect_step_reference(xs, window, 0.30);
        const StepTransition got = detect_step(xs, window, 0.30);
        ASSERT_EQ(got.direction, want.direction) << "window " << window << " len " << len;
        ASSERT_EQ(got.change_index, want.change_index);
        ASSERT_EQ(got.magnitude, want.magnitude);
        steps += want.direction != StepDirection::kNone;
      }
    }
  }
  EXPECT_GT(steps, 1000u);
}

TEST(DetectStep, TerminatesOnNanSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> xs = constant(40, 100.0);
  for (const std::size_t i : {0u, 5u, 6u, 17u, 30u}) xs[i] = nan;
  for (const std::size_t window : {std::size_t{3}, std::size_t{11}}) {
    const StepTransition r = detect_step(xs, window, 0.30);
    EXPECT_LE(r.change_index, xs.size());
  }
  EXPECT_NO_THROW((void)detect_step(constant(30, nan), 11, 0.30));
}

// Property sweep: detection threshold behaves monotonically — a larger
// step magnitude is never harder to detect.
class StepMagnitudeTest : public ::testing::TestWithParam<double> {};

TEST_P(StepMagnitudeTest, MagnitudeAboveThresholdDetected) {
  const double mag = GetParam();
  std::vector<double> xs = constant(30, 100.0);
  const auto after = constant(30, 100.0 * mag);
  xs.insert(xs.end(), after.begin(), after.end());
  const auto r = detect_step(xs, 11, 0.30);
  if (mag > 1.30 || mag < 0.70) {
    EXPECT_NE(r.direction, StepDirection::kNone) << "mag=" << mag;
  } else {
    EXPECT_EQ(r.direction, StepDirection::kNone) << "mag=" << mag;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StepMagnitudeTest,
                         ::testing::Values(0.2, 0.5, 0.69, 0.8, 1.0, 1.2, 1.29,
                                           1.35, 1.7, 3.0));

}  // namespace
}  // namespace v6mon::util
