#include "bgp/anycast.h"

#include <algorithm>

namespace v6mon::bgp {

const ip::Ipv6Prefix& six_to_four_prefix() {
  static const ip::Ipv6Prefix prefix = ip::Ipv6Prefix::parse_or_throw("2002::/16");
  return prefix;
}

std::vector<topo::Asn> live_tunnel_relays(const topo::AsGraph& graph) {
  std::vector<topo::Asn> relays;
  for (std::uint32_t id = 0; id < graph.num_links(); ++id) {
    const topo::AsLink& l = graph.link(id);
    if (is_live_tunnel(l)) relays.push_back(l.a);
  }
  std::sort(relays.begin(), relays.end());
  relays.erase(std::unique(relays.begin(), relays.end()), relays.end());
  return relays;
}

std::optional<RibEntry> six_to_four_route(
    std::span<const RouteTable* const> relay_tables, topo::Asn src) {
  const RouteTable* best = nullptr;
  for (const RouteTable* t : relay_tables) {
    if (!t->reachable(src)) continue;
    if (best == nullptr || t->path_length(src) < best->path_length(src)) best = t;
  }
  if (best == nullptr) return std::nullopt;
  return RibEntry{best->dest(), best->as_path(src)};
}

}  // namespace v6mon::bgp
