#pragma once

#include <optional>
#include <span>
#include <vector>

#include "bgp/rib.h"
#include "bgp/route_computer.h"
#include "ip/prefix.h"
#include "topo/as_graph.h"

namespace v6mon::bgp {

// 6to4 anycast (RFC 3068): a router's table carries one 2002::/16 route
// toward the *nearest* relay; the destination island never appears in the
// AS path. This is why tunnelled IPv6 paths look 1-2 hops long while
// performing like the whole underlay — the paper's Table 7 artifact.
// core::sync_vp_routes elects through these two functions, at world build
// and at every epoch alike.

/// The 6to4 prefix, 2002::/16.
[[nodiscard]] const ip::Ipv6Prefix& six_to_four_prefix();

/// A tunnel pseudo-link that still carries IPv6. AsGraph::retire_tunnel
/// clears `in_v6`: the relay stops serving that island.
[[nodiscard]] inline bool is_live_tunnel(const topo::AsLink& l) {
  return l.v6_tunnel && l.in_v6;
}

/// ASes serving at least one live tunnel (is_live_tunnel), ascending. A
/// relay whose tunnels were all retired serves no island and is never a
/// candidate.
[[nodiscard]] std::vector<topo::Asn> live_tunnel_relays(const topo::AsGraph& graph);

/// The 2002::/16 route of a router in `src`, toward the relay with the
/// shortest path among `relay_tables` (IPv6 tables toward each
/// live_tunnel_relays entry, in that order); the earlier relay wins a tie.
/// nullopt when no relay is reachable from `src`.
[[nodiscard]] std::optional<RibEntry> six_to_four_route(
    std::span<const RouteTable* const> relay_tables, topo::Asn src);

}  // namespace v6mon::bgp
