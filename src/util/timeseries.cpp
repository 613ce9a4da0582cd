#include "util/timeseries.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/contracts.h"
#include "util/error.h"
#include "util/stats.h"

namespace v6mon::util {

void TimeSeries::push_back(std::uint32_t round, double value) {
  if (!points_.empty() && round <= points_.back().round) {
    throw Error("timeseries: rounds must be strictly increasing (got " +
                std::to_string(round) + " after " +
                std::to_string(points_.back().round) + ")");
  }
  points_.push_back({round, value});
}

std::vector<std::uint32_t> TimeSeries::rounds() const {
  std::vector<std::uint32_t> out;
  out.reserve(points_.size());
  for (const Point& p : points_) out.push_back(p.round);
  return out;
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const Point& p : points_) out.push_back(p.value);
  return out;
}

double TimeSeries::growth_factor() const {
  if (points_.size() < 2 || points_.front().value == 0.0) return 1.0;
  return points_.back().value / points_.front().value;
}

std::vector<double> median_filter(const std::vector<double>& xs, std::size_t window) {
  assert(window % 2 == 1);
  std::vector<double> out(xs.size());
  if (xs.empty()) return out;
  const std::size_t half = window / 2;
  std::vector<double> buf;
  buf.reserve(window);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(i + half, xs.size() - 1);
    buf.assign(xs.begin() + static_cast<std::ptrdiff_t>(lo),
               xs.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
    std::nth_element(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(buf.size() / 2),
                     buf.end());
    double m = buf[buf.size() / 2];
    if (buf.size() % 2 == 0) {
      auto lower = std::max_element(buf.begin(),
                                    buf.begin() + static_cast<std::ptrdiff_t>(buf.size() / 2));
      m = (m + *lower) / 2.0;
    }
    out[i] = m;
  }
  return out;
}

StepTransition detect_step(const std::vector<double>& xs, std::size_t window,
                           double threshold) {
  V6MON_REQUIRE(window > 0, "step detection needs a non-empty window");
  StepTransition result;
  const std::size_t need = window / 2 + 1;  // consecutive deviating samples
  if (xs.size() < window + need) return result;

  // The trailing `window` samples before index i, kept sorted: moving to
  // i + 1 overwrites one copy of xs[i - window] with xs[i] and shifts it
  // into order. Its median w[window / 2] is the value nth_element selects.
  // Every shift stops at a NaN (all its comparisons are false), and the
  // outgoing NaN is found as itself, so a NaN sample cannot stall or
  // overrun the scan.
  std::vector<double> w;
  w.reserve(window);
  for (std::size_t j = 0; j < window; ++j) {
    w.push_back(xs[j]);
    for (std::size_t k = j; k > 0 && w[k] < w[k - 1]; --k) std::swap(w[k], w[k - 1]);
  }
  const auto slide = [&w](double out, double in) {
    std::size_t k = 0;
    while (k + 1 < w.size() && !(w[k] == out || (std::isnan(w[k]) && std::isnan(out)))) {
      ++k;
    }
    w[k] = in;
    for (; k > 0 && w[k] < w[k - 1]; --k) std::swap(w[k], w[k - 1]);
    for (; k + 1 < w.size() && w[k + 1] < w[k]; ++k) std::swap(w[k], w[k + 1]);
  };
  const auto trailing_median = [&w, window] { return w[window / 2]; };

  std::size_t run = 0;
  int run_dir = 0;  // +1 up, -1 down
  std::size_t run_start = 0;
  double base_at_run_start = 0.0;
  for (std::size_t i = window; i < xs.size(); ++i) {
    if (i > window) slide(xs[i - 1 - window], xs[i - 1]);
    // Freeze the baseline while a candidate run is open, so the run's own
    // samples do not drag the reference median toward the new regime.
    const double base = (run == 0) ? trailing_median() : base_at_run_start;
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
      base_at_run_start = trailing_median();
    } else {
      run = 0;
      run_dir = 0;
    }
    if (run >= need) {
      result.direction = run_dir > 0 ? StepDirection::kUp : StepDirection::kDown;
      result.change_index = run_start;
      RunningStats after;
      for (std::size_t j = run_start; j < xs.size(); ++j) after.add(xs[j]);
      result.magnitude =
          base_at_run_start > 0.0 ? after.mean() / base_at_run_start : 1.0;
      return result;
    }
  }
  return result;
}

double LinearFit::t_statistic() const {
  if (slope_stderr <= 0.0) return 0.0;
  return std::fabs(slope) / slope_stderr;
}

LinearFit linear_fit(const std::vector<double>& ys) {
  LinearFit fit;
  fit.n = ys.size();
  const std::size_t n = ys.size();
  if (n < 3) return fit;
  const double nd = static_cast<double>(n);
  const double mean_x = (nd - 1.0) / 2.0;
  double mean_y = 0.0;
  for (double y : ys) mean_y += y;
  mean_y /= nd;
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    const double dy = ys[i] - mean_y;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = mean_y - fit.slope * mean_x;
  const double ss_res = std::max(0.0, syy - fit.slope * sxy);
  fit.r2 = syy > 0.0 ? 1.0 - ss_res / syy : 1.0;
  if (n > 2) {
    const double sigma2 = ss_res / (nd - 2.0);
    fit.slope_stderr = std::sqrt(sigma2 / sxx);
  }
  return fit;
}

Trend detect_trend(const std::vector<double>& ys, double min_total_drift) {
  if (ys.size() < 6) return Trend::kNone;
  const LinearFit fit = linear_fit(ys);
  if (fit.slope_stderr <= 0.0) {
    // Perfectly collinear series: classify by slope sign alone.
    if (fit.slope == 0.0) return Trend::kNone;
  } else {
    const double tcrit = student_t_critical(0.95, ys.size() - 2);
    if (fit.t_statistic() < tcrit) return Trend::kNone;
  }
  RunningStats s;
  for (double y : ys) s.add(y);
  if (s.mean() == 0.0) return Trend::kNone;
  const double total_drift = fit.slope * static_cast<double>(ys.size() - 1);
  if (std::fabs(total_drift) < min_total_drift * std::fabs(s.mean())) return Trend::kNone;
  return fit.slope > 0.0 ? Trend::kUp : Trend::kDown;
}

}  // namespace v6mon::util
