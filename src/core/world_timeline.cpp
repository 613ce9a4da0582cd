#include "core/world_timeline.h"

#include <algorithm>
#include <set>
#include <utility>

#include "bgp/anycast.h"
#include "bgp/route_computer.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::core {

using topo::Asn;

namespace {

/// Every AS that is — or will ever become — an IPv6 route target someone
/// can observe: v6 site hosts (incl. relocations), tunnel relays (the
/// 2002::/16 anycast candidates), and every AS the delta stream names.
/// Marked in a bitmap over the dense ASNs and collected in ascending order.
std::vector<Asn> tracked_destinations(const World& world,
                                      const std::vector<EpochDeltas>& epochs) {
  const topo::AsGraph& g = world.graph;
  std::vector<std::uint8_t> tracked(g.num_ases(), 0);
  const auto mark = [&](Asn a) {
    if (a != topo::kNoAs) tracked.at(a) = 1;
  };
  for (std::uint32_t id = 0; id < g.num_links(); ++id) {
    if (g.link(id).v6_tunnel) mark(g.link(id).a);
  }
  for (const web::Site& s : world.catalog.sites()) {
    if (s.v6_from_round != web::kNever) mark(s.v6_as);
  }
  // V6MON_LINT_ALLOW(D001): marks a bitmap; the order of the marks is invisible
  for (const auto& [site_id, h] : world.catalog.relocations()) mark(h.v6_as);
  for (const EpochDeltas& e : epochs) {
    for (const WorldDelta& d : e.deltas) {
      mark(d.as);     // kAsEnablesV6 and the prefix events
      mark(d.v6_as);  // kSiteGainsAaaa
    }
  }
  std::vector<Asn> dests;
  for (Asn a = 0; a < tracked.size(); ++a) {
    if (tracked[a] != 0) dests.push_back(a);
  }
  return dests;
}

/// Whether `rib` holds `want` for `prefix` (nullopt: no route at all).
bool rib_holds(const bgp::Rib& rib, const ip::Ipv6Prefix& prefix,
               const std::optional<bgp::RibEntry>& want) {
  const bgp::RibEntry* have = rib.find_v6(prefix);
  return want ? have != nullptr && *have == *want : have == nullptr;
}

void install(bgp::Rib& rib, const ip::Ipv6Prefix& prefix,
             const std::optional<bgp::RibEntry>& route) {
  if (route) {
    rib.add_v6(prefix, *route);
  } else {
    rib.erase_v6(prefix);
  }
}

/// One tracked destination after an epoch's rebuild: the vantage-point
/// rows its RIB entries no longer match (VP index, and the route to
/// install or nullopt to withdraw) and, for a live relay, its table for
/// the 6to4 election.
struct DestRebuild {
  std::vector<std::pair<std::size_t, std::optional<bgp::RibEntry>>> rewrites;
  std::optional<bgp::RouteTable> relay_table;
};

}  // namespace

WorldTimeline::WorldTimeline(World world, std::vector<EpochDeltas> epochs,
                             std::size_t build_threads)
    : world_(std::move(world)),
      epochs_(std::move(epochs)),
      build_threads_(build_threads) {
  std::uint32_t prev = 0;
  for (const EpochDeltas& e : epochs_) {
    if (e.round == 0) throw ConfigError("epoch rounds start at 1 (round 0 is epoch 0)");
    if (e.round <= prev) throw ConfigError("epoch rounds must be strictly ascending");
    prev = e.round;
  }
}

std::optional<std::uint32_t> WorldTimeline::next_epoch_round() const {
  if (next_pending_ >= epochs_.size()) return std::nullopt;
  return epochs_[next_pending_].round;
}

std::vector<std::uint32_t> WorldTimeline::pending_epoch_rounds() const {
  std::vector<std::uint32_t> rounds;
  rounds.reserve(epochs_.size() - next_pending_);
  for (std::size_t i = next_pending_; i < epochs_.size(); ++i) {
    rounds.push_back(epochs_[i].round);
  }
  return rounds;
}

std::vector<WorldChangeSummary> WorldTimeline::advance_to(std::uint32_t round) {
  std::vector<WorldChangeSummary> out;
  if (next_pending_ >= epochs_.size() || epochs_[next_pending_].round > round) {
    return out;
  }
  const obs::TraceSpan span(obs::Stage::kEpochAdvance);
  while (next_pending_ < epochs_.size() && epochs_[next_pending_].round <= round) {
    out.push_back(apply_epoch(epochs_[next_pending_]));
    ++next_pending_;
  }
  return out;
}

WorldChangeSummary WorldTimeline::apply_epoch(const EpochDeltas& epoch) {
  if (applied_ == 0) tracked_ = tracked_destinations(world_, epochs_);
  topo::AsGraph& g = world_.graph;
  const std::size_t n = g.num_ases();

  WorldChangeSummary summary;
  summary.epoch = ++applied_;
  summary.round = epoch.round;
  summary.touched_as.assign(n, 0);
  EpochStats stats;
  stats.epoch = summary.epoch;
  stats.round = epoch.round;
  stats.deltas_applied = epoch.deltas.size();
  stats.tracked_dests = tracked_.size();

  auto touch = [&](Asn a) {
    V6MON_REQUIRE(a < n, "world delta names an AS out of range");
    summary.touched_as[a] = 1;
  };

  // ---- 1. Apply the mutations --------------------------------------------
  std::set<Asn> changed;  // dests whose VP routes may have been (re/un)installed
  bool prefixes_changed = false;
  bool tunnels_changed = false;
  for (const WorldDelta& d : epoch.deltas) {
    switch (d.kind) {
      case WorldDeltaKind::kAsEnablesV6:
        touch(d.as);
        g.node(d.as).has_v6 = true;
        summary.v6_data_plane_changed = true;
        break;
      case WorldDeltaKind::kLinkEnablesV6: {
        const topo::AsLink& l = g.link(d.link_id);
        V6MON_REQUIRE(!l.in_v6, "kLinkEnablesV6 on a link already carrying IPv6");
        g.enable_v6_on_link(d.link_id);
        ++stats.edge_changes;
        touch(l.a);
        touch(l.b);
        break;
      }
      case WorldDeltaKind::kTunnelRetired: {
        const topo::AsLink& l = g.link(d.link_id);
        V6MON_REQUIRE(l.in_v6, "kTunnelRetired on an already-retired tunnel");
        g.retire_tunnel(d.link_id);
        ++stats.edge_changes;
        touch(l.a);
        touch(l.b);
        tunnels_changed = true;
        break;
      }
      case WorldDeltaKind::kPrefixAnnounced:
        touch(d.as);
        g.node(d.as).v6_prefixes.push_back(d.prefix);
        prefixes_changed = true;
        changed.insert(d.as);
        break;
      case WorldDeltaKind::kPrefixWithdrawn: {
        touch(d.as);
        auto& prefixes = g.node(d.as).v6_prefixes;
        const auto it = std::find(prefixes.begin(), prefixes.end(), d.prefix);
        V6MON_REQUIRE(it != prefixes.end(),
                      "kPrefixWithdrawn names a prefix the AS does not announce");
        prefixes.erase(it);
        for (VantagePoint& vp : world_.vantage_points) vp.rib.erase_v6(d.prefix);
        prefixes_changed = true;
        changed.insert(d.as);
        break;
      }
      case WorldDeltaKind::kSiteGainsAaaa:
        touch(d.v6_as);
        world_.catalog.grant_aaaa(d.site_id, epoch.round, d.v6_as, d.v6_addr,
                                  d.v6_server_factor);
        summary.sites_gained_aaaa.push_back(d.site_id);
        // The grant's hosting AS counts as changed even when its routes
        // did not move: monitors re-resolve rows that route toward it.
        changed.insert(d.v6_as);
        break;
    }
  }
  summary.v6_data_plane_changed |=
      stats.edge_changes != 0 || prefixes_changed || tunnels_changed;
  std::sort(summary.sites_gained_aaaa.begin(), summary.sites_gained_aaaa.end());

  // ---- 2. Rebuild the tracked destinations the way build_ribs does ------
  // Every route below is read only at the vantage points' ASes, so each
  // destination converges over their provider closure of the post-epoch
  // graph (bgp::SourceScope says why that is exact; an enabled link can
  // grow the closure). A worker diffs its destination's VP rows against
  // what the RIBs hold and drops the table, unless the destination is a
  // live relay the 6to4 election needs.
  const bgp::FamilyView view(g, ip::Family::kIpv6);
  const std::vector<VantagePoint>& vps = world_.vantage_points;
  std::vector<Asn> vp_ases;
  for (const VantagePoint& vp : vps) vp_ases.push_back(vp.asn);
  const auto scope = bgp::SourceScope::provider_closure(view, vp_ases);
  const std::vector<Asn> relays = bgp::live_tunnel_relays(g);
  std::vector<DestRebuild> rebuilt(tracked_.size());
  ThreadPool pool(resolve_threads(build_threads_));
  parallel_index(pool, tracked_.size(), [&](std::size_t i) {
    const Asn d = tracked_[i];
    const topo::AsNode& dn = g.node(d);
    const bool relay = std::binary_search(relays.begin(), relays.end(), d);
    std::optional<bgp::RouteTable> table;
    if (dn.has_v6 || relay) table = bgp::compute_routes_to(view, d, scope);
    for (std::size_t k = 0; k < vps.size(); ++k) {
      std::optional<bgp::RibEntry> want;
      if (dn.has_v6 && table->reachable(vps[k].asn)) {
        want = bgp::RibEntry{d, table->as_path(vps[k].asn)};
      }
      const bool holds = std::all_of(
          dn.v6_prefixes.begin(), dn.v6_prefixes.end(), [&](const ip::Ipv6Prefix& p) {
            // 6to4 space is covered by the anycast 2002::/16 route.
            return p.network().is_6to4() || rib_holds(vps[k].rib, p, want);
          });
      if (!holds) rebuilt[i].rewrites.emplace_back(k, std::move(want));
    }
    if (relay) rebuilt[i].relay_table = std::move(table);
  });

  // ---- 3. Rewrite the vantage-point RIB rows that moved, in ASN order ----
  for (std::size_t i = 0; i < tracked_.size(); ++i) {
    if (rebuilt[i].rewrites.empty()) continue;
    const Asn d = tracked_[i];
    changed.insert(d);
    for (const auto& [k, route] : rebuilt[i].rewrites) {
      VantagePoint& vp = world_.vantage_points[k];
      V6MON_ASSERT(!route || bgp::is_valley_free(g, ip::Family::kIpv6, vp.asn,
                                                 route->as_path),
                   "selected IPv6 route violates valley-freedom");
      for (const ip::Ipv6Prefix& p : g.node(d).v6_prefixes) {
        if (!p.network().is_6to4()) install(vp.rib, p, route);
      }
      ++stats.changed_routes;
    }
  }

  // ---- 4. 6to4 anycast: each VP's nearest live relay --------------------
  std::vector<const bgp::RouteTable*> candidates;
  for (const DestRebuild& r : rebuilt) {
    if (r.relay_table) candidates.push_back(&*r.relay_table);
  }
  V6MON_REQUIRE(candidates.size() == relays.size(),
                "a live tunnel relay is not tracked by the timeline");
  for (VantagePoint& vp : world_.vantage_points) {
    const std::optional<bgp::RibEntry> route = bgp::six_to_four_route(candidates, vp.asn);
    if (rib_holds(vp.rib, bgp::six_to_four_prefix(), route)) continue;
    install(vp.rib, bgp::six_to_four_prefix(), route);
    ++stats.changed_routes;
  }

  if (prefixes_changed) world_.origins = topo::OriginMap::build(g);

  // Any rewritten RIB entry is a data-plane change monitors must see:
  // a previously unroutable address may now resolve (and vice versa).
  summary.v6_data_plane_changed |= !changed.empty();
  summary.changed_dests.assign(changed.begin(), changed.end());
  stats_.push_back(stats);
  return summary;
}

}  // namespace v6mon::core
