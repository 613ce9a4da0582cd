#pragma once

#include <cmath>
#include <vector>

#include "ip/prefix.h"
#include "topo/as_graph.h"

namespace v6mon::transport {

/// Data-plane characteristics of an AS-level path, as one TCP flow would
/// experience it.
struct PathCharacteristics {
  double rtt_ms = 0.0;            ///< Round-trip propagation across the path.
  double bottleneck_kBps = 0.0;   ///< Narrowest per-flow bandwidth share.
  unsigned as_hops = 0;           ///< *Apparent* AS-path length (tunnels count 1).
  unsigned underlying_hops = 0;   ///< Real hop count including tunnel interior.
  bool via_tunnel = false;
  bool valid = false;             ///< False when the path uses a missing link.
  /// Persistent end-to-end quality multiplier on achieved throughput
  /// (congestion/provisioning beyond the nominal metrics); mean 1.
  double quality = 1.0;
};

/// Walk `as_path` (as returned by bgp::RouteTable::as_path / RibEntry)
/// from `src` and accumulate link metrics in the given family. Tunnel
/// pseudo-links contribute their stored underlying latency plus
/// encapsulation overhead, a bandwidth haircut, and the hidden hop count.
[[nodiscard]] PathCharacteristics characterize_path(const topo::AsGraph& graph,
                                                    topo::Asn src,
                                                    const std::vector<topo::Asn>& as_path,
                                                    ip::Family family);

/// Deterministic persistent per-path quality factor (lognormal, mean 1):
/// real paths differ in congestion/provisioning far beyond their nominal
/// metrics. Keyed by the AS *sequence* alone — family-blind — so the two
/// families of an SP site share one factor while DP sites draw independent
/// ones (the paper's Fig. 3b / Table 11 reconciliation). Pure function of
/// (as_path, sigma).
[[nodiscard]] double path_quality(const std::vector<topo::Asn>& as_path, double sigma);

/// The sigma-free draw behind path_quality: the standard normal
/// `polar_normal(polar_pair())` on the stream keyed by the AS sequence.
/// Requires a non-empty path. A caller that keeps it (bgp::RibEntry's
/// memo) finishes it with quality_of instead of reseeding the stream.
[[nodiscard]] double path_normal(const std::vector<topo::Asn>& as_path);

/// path_quality from the path's normal `z`: the expression
/// `Rng::normal(-sigma * sigma / 2.0, sigma)` feeds exp, so
/// `quality_of(path_normal(p), sigma) == path_quality(p, sigma)` bit for
/// bit whenever sigma > 0 and p is non-empty.
[[nodiscard]] inline double quality_of(double z, double sigma) {
  return std::exp(z * sigma + -sigma * sigma / 2.0);
}

}  // namespace v6mon::transport
