#pragma once

#include <cstdint>

#include "transport/path.h"
#include "util/rng.h"

namespace v6mon::transport {

/// Knobs of the closed-form TCP download model.
struct DownloadParams {
  /// Round trips spent before the first payload byte (TCP handshake +
  /// HTTP request). Slow-start is folded into the effective-rate term.
  double setup_rtts = 2.0;
  /// Receive-window cap: steady-state TCP throughput <= window / RTT.
  double window_kB = 64.0;
  /// Multiplicative lognormal noise applied to each download (transient
  /// congestion, server load).
  double noise_sigma = 0.12;
  /// Probability a download attempt fails outright (reset, stall).
  double failure_prob = 0.002;
  /// Base DNS+connect overhead independent of path (client stack).
  double fixed_overhead_s = 0.02;
};

/// One simulated page download.
struct DownloadResult {
  bool ok = false;
  double seconds = 0.0;
  double kbytes = 0.0;

  /// The paper's performance metric: average download *speed*.
  [[nodiscard]] double speed_kBps() const {
    return (ok && seconds > 0.0) ? kbytes / seconds : 0.0;
  }
};

/// Everything in `simulate` that does not depend on the per-sample draws,
/// precomputed once per (site, family, round): `base_rate` folds the
/// min(server rate, path bottleneck, window/RTT) and path-quality terms,
/// `fixed_s` folds the fixed overhead + setup RTTs. An invalid path (or
/// non-positive page/rate) yields `valid == false`, and every attempt
/// against it fails without consuming draws — matching `simulate`.
struct PreparedDownload {
  bool valid = false;
  double base_rate = 0.0;
  double fixed_s = 0.0;
  double page_kb = 0.0;
};

/// Locally accumulated attempt/failure totals. `simulate` makes up to two
/// registry calls per download; `simulate_prepared` counts here instead,
/// and its caller flushes once per site (`flush_tally`).
struct DownloadTally {
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
};

/// Closed-form single-flow download simulator.
///
/// Effective transfer rate = min(server rate, path bottleneck,
/// window/RTT) x noise; total time = fixed overhead + setup RTTs +
/// bytes / rate. This reproduces the two structural effects the paper's
/// tables hinge on: throughput decays with AS-path length (RTT grows), and
/// tunnels penalize *apparently short* IPv6 paths (their RTT reflects the
/// hidden underlying IPv4 path).
class DownloadSimulator {
 public:
  explicit DownloadSimulator(DownloadParams params = {}) : params_(params) {}

  /// The scalar reference: one attempt from the raw path, counted in the
  /// metrics registry. The campaign samples through `simulate_prepared`,
  /// and tests hold it to this draw for draw.
  [[nodiscard]] DownloadResult simulate(const PathCharacteristics& path,
                                        double page_kb, double server_rate_kBps,
                                        util::Rng& rng) const;

  /// Hoist the draw-independent work out of the sampling loop.
  [[nodiscard]] PreparedDownload prepare(const PathCharacteristics& path,
                                         double page_kb,
                                         double server_rate_kBps) const;

  /// One attempt against a prepared download. Draw-for-draw and bit-for-bit
  /// identical to `simulate` on the same inputs, but registry-free: totals
  /// accumulate in `tally` (flush once with `flush_tally`).
  [[nodiscard]] DownloadResult simulate_prepared(const PreparedDownload& prep,
                                                 util::Rng& rng,
                                                 DownloadTally& tally) const;

  /// Whether one attempt against a prepared download succeeds: the words
  /// `simulate_prepared` draws (the failure coin, then the noise's polar
  /// loop) and the same tally, without finishing the download time. For
  /// callers that read only `.ok` (the identity fetches).
  [[nodiscard]] bool attempt_prepared(const PreparedDownload& prep, util::Rng& rng,
                                      DownloadTally& tally) const;

  /// Flush locally accumulated totals to the metrics registry.
  static void flush_tally(const DownloadTally& tally);

  [[nodiscard]] const DownloadParams& params() const { return params_; }

 private:
  DownloadParams params_;
};

}  // namespace v6mon::transport
