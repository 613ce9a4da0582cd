#include "scenario/world_builder.h"

#include <algorithm>
#include <optional>

#include "bgp/route_computer.h"
#include "core/thread_pool.h"
#include "core/vp_routes.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace v6mon::scenario {

using topo::AsGraph;
using topo::Asn;
using topo::Region;
using topo::Relationship;
using topo::Tier;

namespace {

/// Well-connected IPv6-capable transit ASes in (or near) a region, sorted
/// by degree — vantage points home to these.
std::vector<Asn> candidate_providers(const AsGraph& g, Region region, bool need_v6) {
  std::vector<std::pair<std::size_t, Asn>> scored;
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const topo::AsNode& n = g.node(static_cast<Asn>(i));
    if (n.tier != Tier::kTransit) continue;
    if (need_v6 && !n.has_v6) continue;
    std::size_t degree = g.adjacencies(n.asn).size();
    if (n.region == region) degree += 1000;  // strong local preference
    scored.emplace_back(degree, n.asn);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Asn> out;
  out.reserve(scored.size());
  for (const auto& [deg, asn] : scored) out.push_back(asn);
  return out;
}

Asn attach_vantage_as(AsGraph& g, const VantageSpec& spec,
                      const topo::TopologyParams& tp, util::Rng& rng) {
  const Asn asn = g.add_as(Tier::kStub, spec.region);
  g.node(asn).has_v6 = true;

  const auto providers = candidate_providers(g, spec.region, /*need_v6=*/true);
  if (providers.empty()) throw ConfigError("no IPv6-capable transit providers for VP");

  const int want = std::max(1, spec.num_v4_providers);
  std::vector<Asn> chosen;
  for (std::size_t i = 0; i < providers.size() && chosen.size() < static_cast<std::size_t>(want); ++i) {
    chosen.push_back(providers[i]);
  }
  if (spec.weak_provider_rank >= 0 && !chosen.empty()) {
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(spec.weak_provider_rank), providers.size() - 1);
    chosen.back() = providers[rank];
  }

  switch (spec.v6_mode) {
    case V6UplinkMode::kSameProviders: {
      for (Asn p : chosen) {
        const auto m = topo::draw_link_metrics(tp, g.node(p), g.node(asn), Relationship::kProviderCustomer, rng);
        g.add_link(p, asn, Relationship::kProviderCustomer, true, true, m);
      }
      break;
    }
    case V6UplinkMode::kSubsetProviders: {
      // Exactly one chosen provider carries IPv6; the IPv4 best path
      // often goes via another provider, so first hops diverge for many
      // destinations.
      const std::size_t v6_at =
          spec.v6_provider_rank < 0
              ? chosen.size() - 1
              : std::min<std::size_t>(static_cast<std::size_t>(spec.v6_provider_rank),
                                      chosen.size() - 1);
      for (std::size_t i = 0; i < chosen.size(); ++i) {
        const auto m = topo::draw_link_metrics(tp, g.node(chosen[i]), g.node(asn), Relationship::kProviderCustomer, rng);
        g.add_link(chosen[i], asn, Relationship::kProviderCustomer, true, i == v6_at, m);
      }
      break;
    }
    case V6UplinkMode::kSeparateProvider: {
      for (Asn p : chosen) {
        const auto m = topo::draw_link_metrics(tp, g.node(p), g.node(asn), Relationship::kProviderCustomer, rng);
        g.add_link(p, asn, Relationship::kProviderCustomer, true, false, m);
      }
      // Dedicated IPv6 upstream: the best-connected provider *not* used
      // for IPv4.
      Asn v6_provider = topo::kNoAs;
      for (Asn p : providers) {
        if (std::find(chosen.begin(), chosen.end(), p) == chosen.end()) {
          v6_provider = p;
          break;
        }
      }
      if (v6_provider == topo::kNoAs) v6_provider = providers.back();
      auto m = topo::draw_link_metrics(tp, g.node(v6_provider), g.node(asn), Relationship::kProviderCustomer, rng);
      // Dedicated early-IPv6 upstreams (academic overlays, tunnels to an
      // IPv6 exchange) were markedly slower than commodity IPv4 transit.
      m.latency_ms *= 2.5;
      g.add_link(v6_provider, asn, Relationship::kProviderCustomer, false, true, m);
      break;
    }
  }
  return asn;
}

/// Pick the IPv6 core anchor: a tier-1 with IPv6 and at least one v6 link.
Asn v6_core_anchor(const AsGraph& g) {
  for (Asn t1 : g.ases_of_tier(Tier::kTier1)) {
    if (!g.node(t1).has_v6) continue;
    for (const topo::Adjacency& adj : g.adjacencies(t1)) {
      if (g.link_in_family(adj.link_id, ip::Family::kIpv6)) return t1;
    }
  }
  throw ConfigError("topology has no IPv6 core (no v6-enabled tier-1)");
}

}  // namespace

TunnelStats apply_tunnel_overlay(AsGraph& graph, std::size_t num_relays,
                                 double extra_latency_ms, double bandwidth_factor,
                                 util::Rng& rng, std::size_t threads) {
  TunnelStats stats;
  const Asn core = v6_core_anchor(graph);
  const bgp::RouteTable to_core =
      bgp::compute_routes_to(graph, ip::Family::kIpv6, core);

  // Relay candidates: v6 transits/tier-1s that natively reach the core.
  std::vector<Asn> relay_pool;
  for (std::size_t i = 0; i < graph.num_ases(); ++i) {
    const topo::AsNode& n = graph.node(static_cast<Asn>(i));
    if (!n.has_v6 || n.tier == Tier::kStub) continue;
    if (n.asn == core || to_core.reachable(n.asn)) relay_pool.push_back(n.asn);
  }
  if (relay_pool.empty()) throw ConfigError("no tunnel relay candidates");
  rng.shuffle(relay_pool);
  relay_pool.resize(std::min(num_relays, relay_pool.size()));

  // IPv4 routes *to each relay* let us derive each island's underlying
  // tunnel path metrics. Tables are independent per relay — fan out.
  core::ThreadPool pool(core::resolve_threads(threads));
  const bgp::FamilyView v4_view(graph, ip::Family::kIpv4);
  std::vector<std::optional<bgp::RouteTable>> v4_to_relay(relay_pool.size());
  core::parallel_index(pool, relay_pool.size(), [&](std::size_t r) {
    v4_to_relay[r] = bgp::compute_routes_to(v4_view, relay_pool[r]);
  });

  for (std::size_t i = 0; i < graph.num_ases(); ++i) {
    const Asn asn = static_cast<Asn>(i);
    const topo::AsNode& n = graph.node(asn);
    if (!n.has_v6 || asn == core) continue;
    // Tunnel users: ASes with no native IPv6 route to the core, plus every
    // 2002::/16 (6to4) announcer — their traffic rides relays by design.
    const bool six_to_four =
        !n.v6_prefixes.empty() && n.v6_prefixes.front().network().is_6to4();
    if (to_core.reachable(asn) && !six_to_four) continue;
    ++stats.islands;

    // Relay selection is an anycast lottery (RFC 3068-era 6to4 relays and
    // tunnel brokers rarely sat near either endpoint): pick a random
    // reachable relay, seeded per island.
    std::vector<std::size_t> reachable;
    for (std::size_t r = 0; r < relay_pool.size(); ++r) {
      if (asn != relay_pool[r] && v4_to_relay[r]->reachable(asn)) reachable.push_back(r);
    }
    if (reachable.empty()) continue;  // island unreachable even in v4
    const std::size_t best = reachable[rng.index(reachable.size())];
    const unsigned best_len = v4_to_relay[best]->path_length(asn);

    // Walk the underlying IPv4 path to accumulate true latency/bandwidth.
    double latency = 0.0;
    double bandwidth = 1.0e9;
    Asn prev = asn;
    for (Asn hop : v4_to_relay[best]->as_path(asn)) {
      const std::uint32_t link = graph.find_link(prev, hop, ip::Family::kIpv4);
      if (link == AsGraph::kNoLink) break;
      latency += graph.link(link).metrics.latency_ms;
      bandwidth = std::min(bandwidth, graph.link(link).metrics.bandwidth_kBps);
      prev = hop;
    }
    graph.add_tunnel(relay_pool[best], asn, {latency, bandwidth}, best_len,
                     extra_latency_ms, bandwidth_factor);
    ++stats.tunnels_added;
  }
  return stats;
}

void build_ribs(core::World& world, std::size_t threads) {
  const obs::TraceSpan rib_span(obs::Stage::kRibBuild);
  // Destination set: every AS hosting a site presence (incl. relocations),
  // marked in a bitmap over the dense ASNs and collected in ascending order.
  const AsGraph& g = world.graph;
  std::vector<std::uint8_t> is_dest(g.num_ases(), 0);
  for (const web::Site& s : world.catalog.sites()) is_dest.at(s.v4_as) = 1;
  for (const web::V6Presence& p : world.catalog.v6_records()) is_dest.at(p.as) = 1;
  // V6MON_LINT_ALLOW(D001): marks a bitmap; the order of the marks is invisible
  for (const auto& [site_id, h] : world.catalog.relocations()) {
    is_dest.at(h.v4_as) = 1;
    if (h.v6_as != topo::kNoAs) is_dest.at(h.v6_as) = 1;
  }
  std::vector<Asn> dests;
  for (Asn asn = 0; asn < is_dest.size(); ++asn) {
    if (is_dest[asn] != 0) dests.push_back(asn);
  }

  // Functions of the world alone (deterministic); added to the registry
  // once at the end.
  std::uint64_t tables_built = 0;
  std::uint64_t routes_installed = 0;
  std::uint64_t scope_ases = 0;
  core::ThreadPool pool(core::resolve_threads(threads));
  for (const ip::Family family : {ip::Family::kIpv4, ip::Family::kIpv6}) {
    const core::VpRouteSync sync = core::sync_vp_routes(world, family, dests, pool);
    tables_built += sync.tables_computed;
    routes_installed += sync.prefixes_installed;
    scope_ases += sync.scope_ases;
  }

  auto& metrics = obs::metrics();
  metrics.add(metrics.counter("rib.dest_tables"), tables_built);
  metrics.add(metrics.counter("rib.routes"), routes_installed);
  metrics.add(metrics.counter("rib.scope_ases"), scope_ases);
}

core::World build_world(const WorldSpec& spec) {
  util::Rng rng(spec.seed);
  core::World world;

  util::Rng topo_rng = rng.child("topology");
  world.graph = topo::generate_topology(spec.topology, topo_rng);

  // Vantage points attach before addressing so they get prefixes too.
  util::Rng vp_rng = rng.child("vantage");
  for (const VantageSpec& vs : spec.vantage_points) {
    core::VantagePoint vp;
    vp.name = vs.name;
    vp.type = vs.type;
    vp.start_round = vs.start_round;
    vp.has_as_path = vs.has_as_path;
    vp.whitelisted = vs.whitelisted;
    vp.uses_dns_cache_supplement = vs.uses_dns_cache_supplement;
    vp.asn = attach_vantage_as(world.graph, vs, spec.topology, vp_rng);
    world.vantage_points.push_back(std::move(vp));
  }

  util::Rng addr_rng = rng.child("addresses");
  topo::assign_addresses(world.graph, spec.addresses, addr_rng);

  web::CatalogParams cat_params = spec.catalog;
  cat_params.w6d_round = spec.w6d_round;
  util::Rng cat_rng = rng.child("catalog");
  {
    const obs::TraceSpan catalog_span(obs::Stage::kCatalogBuild);
    world.catalog = web::SiteCatalog::generate(world.graph, cat_params, cat_rng,
                                               spec.build_threads);
  }

  if (spec.tunnels) {
    util::Rng tun_rng = rng.child("tunnels");
    apply_tunnel_overlay(world.graph, spec.tunnel_relays,
                         spec.tunnel_extra_latency_ms, spec.tunnel_bandwidth_factor,
                         tun_rng, spec.build_threads);
  }

  world.origins = topo::OriginMap::build(world.graph);
  world.w6d_round = spec.w6d_round;
  world.num_rounds = static_cast<std::uint32_t>(cat_params.num_rounds);

  build_ribs(world, spec.build_threads);
  return world;
}

}  // namespace v6mon::scenario
