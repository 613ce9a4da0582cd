#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ip/ipv6.h"
#include "ip/prefix.h"
#include "topo/as_graph.h"

namespace v6mon::core {

/// What changed about the world at one epoch boundary. The vocabulary is
/// deliberately IPv6-data-plane-only: the paper's window is an IPv4
/// steady state watching IPv6 arrive (Fig. 1/3), so IPv4 topology,
/// addressing, and RIBs are immutable for the whole campaign — an epoch
/// re-converges IPv6 routes only, and nothing v4.
enum class WorldDeltaKind : std::uint8_t {
  kAsEnablesV6,      ///< AS turns dual-stack (control plane); pairs with link enables.
  kLinkEnablesV6,    ///< An existing IPv4 link starts carrying IPv6 (peering parity narrows).
  kTunnelRetired,    ///< A 6to4/broker pseudo-link is torn down (native upgrade).
  kPrefixAnnounced,  ///< AS announces an additional IPv6 prefix.
  kPrefixWithdrawn,  ///< AS withdraws an IPv6 prefix.
  kSiteGainsAaaa,    ///< An IPv4-only site stands up an AAAA record.
};

[[nodiscard]] constexpr const char* world_delta_kind_name(WorldDeltaKind k) {
  switch (k) {
    case WorldDeltaKind::kAsEnablesV6: return "as-enables-v6";
    case WorldDeltaKind::kLinkEnablesV6: return "link-enables-v6";
    case WorldDeltaKind::kTunnelRetired: return "tunnel-retired";
    case WorldDeltaKind::kPrefixAnnounced: return "prefix-announced";
    case WorldDeltaKind::kPrefixWithdrawn: return "prefix-withdrawn";
    case WorldDeltaKind::kSiteGainsAaaa: return "site-gains-aaaa";
  }
  return "?";
}

/// One world-evolution event. Which fields are meaningful depends on
/// `kind`; unused fields keep their defaults.
struct WorldDelta {
  WorldDeltaKind kind = WorldDeltaKind::kAsEnablesV6;
  topo::Asn as = topo::kNoAs;           ///< kAsEnablesV6 / prefix events.
  std::uint32_t link_id = 0xffffffffu;  ///< kLinkEnablesV6 / kTunnelRetired.
  ip::Ipv6Prefix prefix;                ///< Prefix events.
  // kSiteGainsAaaa:
  std::uint32_t site_id = 0;
  topo::Asn v6_as = topo::kNoAs;
  ip::Ipv6Address v6_addr;
  float v6_server_factor = 1.0f;
};

/// All deltas applied at one epoch boundary: the world steps from epoch
/// e-1 to e when the campaign reaches `round` (before any measurement of
/// that round runs — the boundary is quiescent by construction).
struct EpochDeltas {
  std::uint32_t round = 0;
  std::vector<WorldDelta> deltas;
};

/// What an applied epoch means for epoch-aware caches, published to
/// every monitor before the epoch's first measurement. The invalidation
/// protocol (DESIGN.md §13): a cached object is stale when its route
/// *origin* is in `changed_dests`, when its AS path crosses a touched
/// AS, or — for cached negative results — when the v6 data plane changed
/// at all (an unreachable site may just have become reachable).
struct WorldChangeSummary {
  std::uint32_t epoch = 0;  ///< The epoch just entered (>= 1).
  std::uint32_t round = 0;
  bool v6_data_plane_changed = false;
  /// Destination ASes whose vantage-point v6 RIB rows were rewritten,
  /// plus the ASes a prefix or AAAA event names; sorted ascending.
  std::vector<topo::Asn> changed_dests;
  /// Per-AS flag: adjacency set / role / announcements changed here.
  std::vector<std::uint8_t> touched_as;
  /// Sites whose AAAA record appeared at this boundary, sorted ascending.
  std::vector<std::uint32_t> sites_gained_aaaa;

  [[nodiscard]] bool as_touched(topo::Asn a) const {
    return a < touched_as.size() && touched_as[a] != 0;
  }
  [[nodiscard]] bool dest_changed(topo::Asn d) const {
    return std::binary_search(changed_dests.begin(), changed_dests.end(), d);
  }
};

/// Work accounting for one epoch advance.
struct EpochStats {
  std::uint32_t epoch = 0;
  std::uint32_t round = 0;
  std::size_t deltas_applied = 0;
  std::size_t edge_changes = 0;     ///< Links that started or stopped carrying IPv6.
  std::size_t tracked_dests = 0;    ///< Destinations re-converged.
  std::size_t changed_routes = 0;   ///< (VP, dest) RIB rows rewritten.
};

}  // namespace v6mon::core
