#include "core/vp_routes.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <utility>

#include "bgp/anycast.h"
#include "bgp/route_computer.h"
#include "util/contracts.h"

namespace v6mon::core {

using topo::Asn;

namespace {

// One name per RIB operation for both families, so the pass below is
// written once.
const bgp::RibEntry* find(const bgp::Rib& r, const ip::Ipv4Prefix& p) { return r.find_v4(p); }
const bgp::RibEntry* find(const bgp::Rib& r, const ip::Ipv6Prefix& p) { return r.find_v6(p); }
void add(bgp::Rib& r, const ip::Ipv4Prefix& p, const bgp::RibEntry& e) { r.add_v4(p, e); }
void add(bgp::Rib& r, const ip::Ipv6Prefix& p, const bgp::RibEntry& e) { r.add_v6(p, e); }
void erase(bgp::Rib& r, const ip::Ipv4Prefix& p) { r.erase_v4(p); }
void erase(bgp::Rib& r, const ip::Ipv6Prefix& p) { r.erase_v6(p); }

/// Whether `rib` holds `want` for `prefix` (nullopt: no route at all).
template <typename Prefix>
bool rib_holds(const bgp::Rib& rib, const Prefix& prefix,
               const std::optional<bgp::RibEntry>& want) {
  // V6MON_LINT_ALLOW(D006): read and dropped within this call; nothing is cached
  const bgp::RibEntry* have = find(rib, prefix);
  return want ? have != nullptr && *have == *want : have == nullptr;
}

/// Install `route` for `prefix`, or withdraw the prefix when nullopt.
template <typename Prefix>
void install(bgp::Rib& rib, const Prefix& prefix, const std::optional<bgp::RibEntry>& route) {
  if (route) {
    add(rib, prefix, *route);
  } else {
    erase(rib, prefix);
  }
}

/// Calls `fn` on each of `n`'s `family` prefixes that a destination row
/// covers. 6to4 space is left out: the anycast 2002::/16 route covers it.
template <typename Fn>
void for_each_row_prefix(const topo::AsNode& n, ip::Family family, Fn&& fn) {
  if (family == ip::Family::kIpv4) {
    for (const ip::Ipv4Prefix& p : n.v4_prefixes) fn(p);
    return;
  }
  for (const ip::Ipv6Prefix& p : n.v6_prefixes) {
    if (!p.network().is_6to4()) fn(p);
  }
}

/// One work item after its worker ran: the VP rows its RIB entries no
/// longer match (VP index, and the route to install or nullopt to
/// withdraw) and, for a live relay, its table for the 6to4 election.
struct Item {
  std::vector<std::pair<std::size_t, std::optional<bgp::RibEntry>>> rewrites;
  std::optional<bgp::RouteTable> relay_table;
  bool converged = false;
};

}  // namespace

VpRouteSync sync_vp_routes(World& world, ip::Family family,
                           std::span<const Asn> dests, ThreadPool& pool) {
  V6MON_REQUIRE(std::adjacent_find(dests.begin(), dests.end(),
                                   std::greater_equal<>()) == dests.end(),
                "sync_vp_routes destinations must be strictly ascending");
  const topo::AsGraph& g = world.graph;
  const std::vector<VantagePoint>& vps = world.vantage_points;
  const bgp::FamilyView view(g, family);
  std::vector<Asn> vp_ases;
  for (const VantagePoint& vp : vps) vp_ases.push_back(vp.asn);
  const auto scope = bgp::SourceScope::provider_closure(view, vp_ases);

  // Work items: the destinations plus, for IPv6, the live relays (the
  // 2002::/16 candidates), ascending, each AS once.
  const bool v6 = family == ip::Family::kIpv6;
  const std::vector<Asn> relays = v6 ? bgp::live_tunnel_relays(g) : std::vector<Asn>{};
  std::vector<Asn> work;
  std::set_union(dests.begin(), dests.end(), relays.begin(), relays.end(),
                 std::back_inserter(work));
  std::vector<Item> items(work.size());
  parallel_index(pool, work.size(), [&](std::size_t i) {
    const Asn d = work[i];
    const bool relay = std::binary_search(relays.begin(), relays.end(), d);
    if (!std::binary_search(dests.begin(), dests.end(), d)) {  // a relay alone
      items[i].relay_table = bgp::compute_routes_to(view, d, scope);
      items[i].converged = true;
      return;
    }
    const topo::AsNode& dn = g.node(d);
    const bool routed = !v6 || dn.has_v6;
    std::optional<bgp::RouteTable> table;
    if (routed || relay) table = bgp::compute_routes_to(view, d, scope);
    items[i].converged = table.has_value();
    for (std::size_t k = 0; k < vps.size(); ++k) {
      std::optional<bgp::RibEntry> want;
      if (routed && table->reachable(vps[k].asn)) {
        want = bgp::RibEntry{d, table->as_path(vps[k].asn)};
      }
      bool holds = true;
      for_each_row_prefix(dn, family, [&](const auto& p) {
        holds = holds && rib_holds(vps[k].rib, p, want);
      });
      if (!holds) items[i].rewrites.emplace_back(k, std::move(want));
    }
    if (relay) items[i].relay_table = std::move(table);
  });

  VpRouteSync out;
  out.scope_ases = scope.size();
  std::vector<const bgp::RouteTable*> candidates;  // in relay ASN order
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Item& item = items[i];
    if (item.converged) ++out.tables_computed;
    if (item.relay_table) candidates.push_back(&*item.relay_table);
    if (item.rewrites.empty()) continue;
    out.rewritten_dests.push_back(work[i]);
    for (const auto& [k, route] : item.rewrites) {
      VantagePoint& vp = world.vantage_points[k];
      // Gao-Rexford: every path BGP selects must be valley-free; a
      // violation here means compute_routes_to leaked an invalid export.
      V6MON_ASSERT(!route || bgp::is_valley_free(g, family, vp.asn, route->as_path),
                   "selected route violates valley-freedom");
      for_each_row_prefix(g.node(work[i]), family, [&](const auto& p) {
        install(vp.rib, p, route);
        if (route) ++out.prefixes_installed;
      });
      ++out.rows_rewritten;
    }
  }

  if (v6) {
    for (VantagePoint& vp : world.vantage_points) {
      const std::optional<bgp::RibEntry> route = bgp::six_to_four_route(candidates, vp.asn);
      if (rib_holds(vp.rib, bgp::six_to_four_prefix(), route)) continue;
      install(vp.rib, bgp::six_to_four_prefix(), route);
      if (route) ++out.prefixes_installed;
      ++out.rows_rewritten;
    }
  }
  return out;
}

}  // namespace v6mon::core
