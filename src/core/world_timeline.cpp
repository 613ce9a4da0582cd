#include "core/world_timeline.h"

#include <algorithm>
#include <set>

#include "bgp/anycast.h"
#include "core/thread_pool.h"
#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::core {

using topo::Asn;

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

const bgp::RouteTable* WorldTimeline::v6_table(Asn dest) const {
  const auto it = v6_tables_.find(dest);
  return it == v6_tables_.end() ? nullptr : &it->second;
}

std::vector<Asn> WorldTimeline::tracked_dests() const {
  std::vector<Asn> out;
  out.reserve(v6_tables_.size());
  for (const auto& [d, t] : v6_tables_) out.push_back(d);
  return out;
}

void WorldTimeline::ensure_engine() {
  if (engine_ready_) return;
  engine_ready_ = true;

  // Tracked destinations: every AS that is — or will ever become — an
  // IPv6 route target someone can observe: v6 site hosts (incl.
  // relocations), tunnel relays (the 2002::/16 anycast candidates), and
  // every AS the delta stream names. Tables for not-yet-enabled ASes are
  // computed against the current view like any other (mostly
  // unreachable) destination and converge incrementally as their links
  // appear — so per-epoch work never includes a surprise full build.
  std::set<Asn> dests;
  const topo::AsGraph& g = world_.graph;
  for (std::uint32_t id = 0; id < g.num_links(); ++id) {
    if (g.link(id).v6_tunnel) dests.insert(g.link(id).a);
  }
  for (const web::Site& s : world_.catalog.sites()) {
    if (s.v6_from_round != web::kNever) dests.insert(s.v6_as);
    if (const web::Hosting* h = world_.catalog.relocation(s.id)) {
      if (h->v6_as != topo::kNoAs) dests.insert(h->v6_as);
    }
  }
  for (const EpochDeltas& e : epochs_) {
    for (const WorldDelta& d : e.deltas) {
      switch (d.kind) {
        case WorldDeltaKind::kAsEnablesV6:
        case WorldDeltaKind::kPrefixAnnounced:
        case WorldDeltaKind::kPrefixWithdrawn:
          if (d.as != topo::kNoAs) dests.insert(d.as);
          break;
        case WorldDeltaKind::kSiteGainsAaaa:
          if (d.v6_as != topo::kNoAs) dests.insert(d.v6_as);
          break;
        case WorldDeltaKind::kLinkEnablesV6:
        case WorldDeltaKind::kTunnelRetired:
          break;
      }
    }
  }

  const std::vector<Asn> dest_list(dests.begin(), dests.end());
  std::vector<std::optional<bgp::RouteTable>> tables(dest_list.size());
  const bgp::FamilyView view(g, ip::Family::kIpv6);
  ThreadPool pool(resolve_threads(build_threads_));
  parallel_index(pool, dest_list.size(), [&](std::size_t i) {
    tables[i] = bgp::compute_routes_to(view, dest_list[i]);
  });
  for (std::size_t i = 0; i < dest_list.size(); ++i) {
    v6_tables_.emplace(dest_list[i], std::move(*tables[i]));
  }
}

std::vector<WorldChangeSummary> WorldTimeline::advance_to(std::uint32_t round) {
  std::vector<WorldChangeSummary> out;
  while (next_pending_ < epochs_.size() && epochs_[next_pending_].round <= round) {
    out.push_back(apply_epoch(epochs_[next_pending_]));
    ++next_pending_;
  }
  return out;
}

WorldChangeSummary WorldTimeline::apply_epoch(const EpochDeltas& epoch) {
  ensure_engine();
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

  auto touch = [&](Asn a) {
    V6MON_REQUIRE(a < n, "world delta names an AS out of range");
    summary.touched_as[a] = 1;
  };

  // ---- 1. Apply the mutations, collecting the edge-change frontier -----
  std::vector<bgp::EdgeChange> edge_changes;
  std::set<Asn> changed;  // dests whose VP routes must be (re/un)installed
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
        edge_changes.push_back({l.a, l.b, /*added=*/true});
        touch(l.a);
        touch(l.b);
        break;
      }
      case WorldDeltaKind::kTunnelRetired: {
        const topo::AsLink& l = g.link(d.link_id);
        V6MON_REQUIRE(l.in_v6, "kTunnelRetired on an already-retired tunnel");
        g.retire_tunnel(d.link_id);
        edge_changes.push_back({l.a, l.b, /*added=*/false});
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
        // Ensure the hosting AS's routes are installed even when it never
        // hosted an IPv6 presence before this epoch.
        changed.insert(d.v6_as);
        break;
    }
  }
  stats.edge_changes = edge_changes.size();
  summary.v6_data_plane_changed |=
      !edge_changes.empty() || prefixes_changed || tunnels_changed;
  std::sort(summary.sites_gained_aaaa.begin(), summary.sites_gained_aaaa.end());

  // ---- 2. Re-converge the tracked tables over the dirty frontier -------
  stats.tracked_dests = v6_tables_.size();
  if (!edge_changes.empty() || mode_ == EpochAdvanceMode::kFullRebuild) {
    const bgp::FamilyView view(g, ip::Family::kIpv6);
    std::vector<Asn> dest_list = tracked_dests();
    std::vector<bgp::DeltaStats> per_dest(dest_list.size());
    std::vector<std::uint8_t> dest_changed(dest_list.size(), 0);
    ThreadPool pool(resolve_threads(build_threads_));
    parallel_index(pool, dest_list.size(), [&](std::size_t i) {
      bgp::RouteTable& table = v6_tables_.at(dest_list[i]);
      if (mode_ == EpochAdvanceMode::kFullRebuild) {
        bgp::RouteTable fresh = bgp::compute_routes_to(view, dest_list[i]);
        dest_changed[i] = fresh == table ? 0 : 1;
        table = std::move(fresh);
      } else {
        per_dest[i] = bgp::compute_routes_delta(view, table, edge_changes);
        dest_changed[i] =
            (per_dest[i].changed > 0 || per_dest[i].fell_back) ? 1 : 0;
      }
    });
    for (std::size_t i = 0; i < dest_list.size(); ++i) {
      if (mode_ == EpochAdvanceMode::kFullRebuild) {
        ++stats.full_recomputes;
      } else {
        ++stats.delta_recomputes;
        stats.invalidated += per_dest[i].invalidated;
        stats.reevaluated += per_dest[i].reevaluated;
        stats.changed_routes += per_dest[i].changed;
        if (per_dest[i].fell_back) ++stats.fallbacks;
      }
      if (dest_changed[i] != 0) changed.insert(dest_list[i]);
    }
  }

  // ---- 3. Rewrite the vantage-point RIB entries that moved --------------
  for (Asn d : changed) {
    const auto it = v6_tables_.find(d);
    V6MON_REQUIRE(it != v6_tables_.end(),
                  "changed destination is not tracked by the timeline");
    const bgp::RouteTable& t = it->second;
    const topo::AsNode& dn = g.node(d);
    for (VantagePoint& vp : world_.vantage_points) {
      const bool routable = dn.has_v6 && t.reachable(vp.asn);
      if (routable) {
        bgp::RibEntry e;
        e.origin = d;
        e.as_path = t.as_path(vp.asn);
        V6MON_ASSERT(bgp::is_valley_free(g, ip::Family::kIpv6, vp.asn, e.as_path),
                     "selected IPv6 route violates valley-freedom");
        for (const auto& p : dn.v6_prefixes) {
          if (p.network().is_6to4()) continue;
          vp.rib.add_v6(p, e);
        }
      } else {
        for (const auto& p : dn.v6_prefixes) {
          if (p.network().is_6to4()) continue;
          vp.rib.erase_v6(p);
        }
      }
    }
  }

  // ---- 4. 6to4 anycast: re-elect each VP's nearest live relay -----------
  const std::vector<Asn> relays = bgp::live_tunnel_relays(g);
  const bool relay_changed =
      tunnels_changed || std::any_of(relays.begin(), relays.end(),
                                     [&](Asn r) { return changed.count(r) != 0; });
  if (relay_changed) {
    std::vector<const bgp::RouteTable*> candidates;
    for (const Asn r : relays) candidates.push_back(&v6_tables_.at(r));
    for (VantagePoint& vp : world_.vantage_points) {
      if (auto e = bgp::six_to_four_route(candidates, vp.asn)) {
        vp.rib.add_v6(bgp::six_to_four_prefix(), std::move(*e));
      } else {
        vp.rib.erase_v6(bgp::six_to_four_prefix());
      }
    }
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
