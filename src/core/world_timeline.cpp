#include "core/world_timeline.h"

#include <algorithm>
#include <set>
#include <utility>

#include "core/thread_pool.h"
#include "core/vp_routes.h"
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
  for (const web::V6Presence& p : world.catalog.v6_records()) mark(p.as);
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

  // ---- 2. Bring the tracked destinations' VP rows up to date -----------
  // The same pass as the world build (core::sync_vp_routes), over the
  // post-epoch graph: an enabled link can grow the provider closure, and
  // a retired tunnel takes its relay out of the 2002::/16 election.
  ThreadPool pool(resolve_threads(build_threads_));
  const VpRouteSync sync = sync_vp_routes(world_, ip::Family::kIpv6, tracked_, pool);
  changed.insert(sync.rewritten_dests.begin(), sync.rewritten_dests.end());
  stats.changed_routes = sync.rows_rewritten;

  if (prefixes_changed) world_.origins = topo::OriginMap::build(g);

  // Any rewritten RIB entry is a data-plane change monitors must see:
  // a previously unroutable address may now resolve (and vice versa).
  summary.v6_data_plane_changed |= !changed.empty();
  summary.changed_dests.assign(changed.begin(), changed.end());
  stats_.push_back(stats);
  return summary;
}

}  // namespace v6mon::core
