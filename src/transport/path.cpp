#include "transport/path.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.h"
#include "util/rng.h"

namespace v6mon::transport {

double path_quality(const std::vector<topo::Asn>& as_path, double sigma) {
  if (sigma <= 0.0 || as_path.empty()) return 1.0;
  return quality_of(path_normal(as_path), sigma);
}

double path_normal(const std::vector<topo::Asn>& as_path) {
  V6MON_REQUIRE(!as_path.empty(), "path_normal of an empty path");
  std::uint64_t key = 0x9e3779b97f4a7c15ULL;
  for (topo::Asn asn : as_path) {
    key = util::hash_combine(key, "path-hop", asn);
  }
  util::Rng rng(key);
  return util::polar_normal(rng.polar_pair());
}

PathCharacteristics characterize_path(const topo::AsGraph& graph, topo::Asn src,
                                      const std::vector<topo::Asn>& as_path,
                                      ip::Family family) {
  PathCharacteristics pc;
  pc.bottleneck_kBps = std::numeric_limits<double>::infinity();
  topo::Asn prev = src;
  for (topo::Asn cur : as_path) {
    const std::uint32_t link_id = graph.find_link(prev, cur, family);
    if (link_id == topo::AsGraph::kNoLink) {
      pc.valid = false;
      return pc;
    }
    const topo::AsLink& l = graph.link(link_id);
    ++pc.as_hops;
    if (l.v6_tunnel) {
      pc.via_tunnel = true;
      // The stored metrics already describe the underlying IPv4 leg; add
      // the encapsulation overhead on top.
      pc.rtt_ms += 2.0 * (l.metrics.latency_ms + l.tunnel_extra_latency_ms);
      pc.bottleneck_kBps = std::min(
          pc.bottleneck_kBps, l.metrics.bandwidth_kBps * l.tunnel_bandwidth_factor);
      pc.underlying_hops += l.tunnel_underlying_hops;
    } else {
      pc.rtt_ms += 2.0 * l.metrics.latency_ms;
      pc.bottleneck_kBps = std::min(pc.bottleneck_kBps, l.metrics.bandwidth_kBps);
      pc.underlying_hops += 1;
    }
    prev = cur;
  }
  if (as_path.empty()) {
    // Intra-AS delivery: a small constant.
    pc.rtt_ms = 4.0;
    pc.bottleneck_kBps = 1.0e6;
  }
  pc.valid = true;
  // A valid path is physically plausible: positive finite bottleneck,
  // non-negative latency, and at least one underlying hop per AS hop.
  V6MON_ENSURE(pc.bottleneck_kBps > 0.0 && std::isfinite(pc.bottleneck_kBps),
               "valid path needs a positive finite bottleneck");
  V6MON_ENSURE(pc.rtt_ms >= 0.0, "negative RTT");
  V6MON_ENSURE(pc.underlying_hops >= pc.as_hops,
               "underlying hop count cannot undercut the AS hop count");
  return pc;
}

}  // namespace v6mon::transport
