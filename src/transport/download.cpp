#include "transport/download.h"

#include <algorithm>

#include "obs/metrics.h"

namespace v6mon::transport {

namespace {

/// Attempt/failure totals; every attempt is driven by a per-(site, round)
/// RNG stream, so both counters are deterministic in thread count.
struct DownloadMetricIds {
  obs::MetricId downloads = obs::metrics().counter("transport.downloads");
  obs::MetricId failures = obs::metrics().counter("transport.download_failures");
};

const DownloadMetricIds& download_metric_ids() {
  static const DownloadMetricIds ids;
  return ids;
}

}  // namespace

DownloadResult DownloadSimulator::simulate(const PathCharacteristics& path,
                                           double page_kb, double server_rate_kBps,
                                           util::Rng& rng) const {
  obs::metrics().add(download_metric_ids().downloads);
  DownloadResult r;
  if (!path.valid || page_kb <= 0.0 || server_rate_kBps <= 0.0) {
    obs::metrics().add(download_metric_ids().failures);
    return r;
  }
  if (params_.failure_prob > 0.0 && rng.chance(params_.failure_prob)) {
    obs::metrics().add(download_metric_ids().failures);
    return r;
  }

  const double rtt_s = std::max(path.rtt_ms, 1.0) / 1000.0;
  const double window_rate = params_.window_kB / rtt_s;
  double rate = std::min({server_rate_kBps, path.bottleneck_kBps, window_rate});
  // Persistent path quality applies to the achieved rate so both good and
  // bad paths show through (a min() would clamp the upside).
  rate *= path.quality;
  if (params_.noise_sigma > 0.0) rate *= rng.lognormal_median(1.0, params_.noise_sigma);
  rate = std::max(rate, 0.1);

  r.ok = true;
  r.kbytes = page_kb;
  r.seconds = params_.fixed_overhead_s + params_.setup_rtts * rtt_s + page_kb / rate;
  return r;
}

PreparedDownload DownloadSimulator::prepare(const PathCharacteristics& path,
                                            double page_kb,
                                            double server_rate_kBps) const {
  PreparedDownload p;
  p.page_kb = page_kb;
  if (!path.valid || page_kb <= 0.0 || server_rate_kBps <= 0.0) return p;
  const double rtt_s = std::max(path.rtt_ms, 1.0) / 1000.0;
  const double window_rate = params_.window_kB / rtt_s;
  double rate = std::min({server_rate_kBps, path.bottleneck_kBps, window_rate});
  rate *= path.quality;
  p.base_rate = rate;
  p.fixed_s = params_.fixed_overhead_s + params_.setup_rtts * rtt_s;
  p.valid = true;
  return p;
}

DownloadResult DownloadSimulator::simulate_prepared(const PreparedDownload& prep,
                                                    util::Rng& rng,
                                                    DownloadTally& tally) const {
  ++tally.attempts;
  DownloadResult r;
  if (!prep.valid) {
    ++tally.failures;
    return r;
  }
  if (params_.failure_prob > 0.0 && rng.chance(params_.failure_prob)) {
    ++tally.failures;
    return r;
  }
  double rate = prep.base_rate;
  // lognormal_median(1.0, sigma) without its log(1.0): mu = +0.0 exactly.
  if (params_.noise_sigma > 0.0) {
    rate *= util::lognormal_of(rng.polar_pair(), 0.0, params_.noise_sigma);
  }
  rate = std::max(rate, 0.1);
  r.ok = true;
  r.kbytes = prep.page_kb;
  r.seconds = prep.fixed_s + prep.page_kb / rate;
  return r;
}

bool DownloadSimulator::attempt_prepared(const PreparedDownload& prep, util::Rng& rng,
                                         DownloadTally& tally) const {
  ++tally.attempts;
  if (!prep.valid || (params_.failure_prob > 0.0 && rng.chance(params_.failure_prob))) {
    ++tally.failures;
    return false;
  }
  // The noise draw simulate_prepared would finish into a lognormal.
  if (params_.noise_sigma > 0.0) (void)rng.polar_pair();
  return true;
}

void DownloadSimulator::flush_tally(const DownloadTally& tally) {
  if (tally.attempts != 0) {
    obs::metrics().add(download_metric_ids().downloads, tally.attempts);
  }
  if (tally.failures != 0) {
    obs::metrics().add(download_metric_ids().failures, tally.failures);
  }
}

}  // namespace v6mon::transport
