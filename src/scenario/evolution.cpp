#include "scenario/evolution.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

#include "ip/allocator.h"
#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::scenario {

namespace {

using core::EpochDeltas;
using core::WorldDelta;
using core::WorldDeltaKind;
using topo::Asn;

/// Evolution prefixes come from their own pool, disjoint from the
/// address plan's native 2001::/16 and 6to4 2002::/16 space, so an
/// announced prefix can never shadow or collide with a seed allocation.
constexpr std::string_view kEvolutionPool = "2003::/16";
constexpr unsigned kEvolutionPrefixLen = 32;

/// Host index base for granted-site addresses inside an existing AS
/// prefix: the catalog's own host counters grow from 0, so starting the
/// evolution counters in the upper half keeps the two allocators
/// disjoint without sharing state.
constexpr std::uint64_t kGrantHostBase = 0x80000000ULL;

/// The generator's view of the mutable world predicates, evolved delta
/// by delta so every emitted epoch is valid against its predecessor's
/// post-state (apply_epoch REQUIREs exactly these).
struct EvolvedState {
  std::vector<std::uint8_t> as_v6;          ///< node.has_v6 after prior epochs.
  std::vector<std::uint8_t> link_v6;        ///< link.in_v6 after prior epochs.
  std::vector<std::uint8_t> site_has_aaaa;  ///< any AAAA window, ever.
  /// First *native* (non-6to4) prefix per AS, for deriving granted-site
  /// addresses; evolution announcements register here for fresh ASes.
  std::map<Asn, ip::Ipv6Prefix> native_prefix;
  /// Per-AS counter for granted host addresses (offset by kGrantHostBase).
  std::map<Asn, std::uint64_t> grant_hosts;
  /// Announced-and-not-yet-withdrawn evolution prefixes (withdrawal pool).
  std::vector<std::pair<Asn, ip::Ipv6Prefix>> announced;

  explicit EvolvedState(const core::World& world) {
    const topo::AsGraph& g = world.graph;
    as_v6.resize(g.num_ases());
    for (Asn a = 0; a < g.num_ases(); ++a) {
      const topo::AsNode& n = g.node(a);
      as_v6[a] = n.has_v6 ? 1 : 0;
      for (const ip::Ipv6Prefix& p : n.v6_prefixes) {
        if (!p.network().is_6to4()) {
          native_prefix.emplace(a, p);
          break;
        }
      }
    }
    link_v6.resize(g.num_links());
    for (std::uint32_t id = 0; id < g.num_links(); ++id) {
      link_v6[id] = g.link(id).in_v6 ? 1 : 0;
    }
    site_has_aaaa.resize(world.catalog.size());
    for (const web::Site& s : world.catalog.sites()) {
      site_has_aaaa[s.id] = s.v6_record != web::kNoV6Record ? 1 : 0;
    }
  }
};

WorldDelta as_enables_v6(Asn as) {
  WorldDelta d;
  d.kind = WorldDeltaKind::kAsEnablesV6;
  d.as = as;
  return d;
}

WorldDelta prefix_delta(WorldDeltaKind kind, Asn as, const ip::Ipv6Prefix& prefix) {
  WorldDelta d;
  d.kind = kind;
  d.as = as;
  d.prefix = prefix;
  return d;
}

WorldDelta link_delta(WorldDeltaKind kind, std::uint32_t link_id) {
  WorldDelta d;
  d.kind = kind;
  d.link_id = link_id;
  return d;
}

WorldDelta site_gains_aaaa(std::uint32_t site_id, Asn host,
                           const ip::Ipv6Address& addr, float server_factor) {
  WorldDelta d;
  d.kind = WorldDeltaKind::kSiteGainsAaaa;
  d.site_id = site_id;
  d.v6_as = host;
  d.v6_addr = addr;
  d.v6_server_factor = server_factor;
  return d;
}

/// A not-yet-v6 link from `as` to a v6-enabled neighbor, preferring the
/// provider side (adoption rides the uplink first), or kNoLink.
std::uint32_t uplink_candidate(const topo::AsGraph& g, const EvolvedState& st,
                               Asn as) {
  std::uint32_t peer_fallback = topo::AsGraph::kNoLink;
  for (const topo::Adjacency& adj : g.adjacencies(as)) {
    if (st.link_v6[adj.link_id] != 0) continue;
    if (g.link(adj.link_id).v6_tunnel) continue;
    if (st.as_v6[adj.neighbor] == 0) continue;
    if (adj.role == topo::Role::kProvider) return adj.link_id;
    if (peer_fallback == topo::AsGraph::kNoLink) peer_fallback = adj.link_id;
  }
  return peer_fallback;
}

}  // namespace

void EvolutionSpec::validate() const {
  if (!(delta_rate > 0.0) || !std::isfinite(delta_rate) || delta_rate > 100.0) {
    throw ConfigError("evolution.delta_rate must be in (0, 100]");
  }
  if (epoch_interval == 0) {
    throw ConfigError("evolution.epoch_interval must be >= 1");
  }
  if (!(max_as_fraction > 0.0) || !std::isfinite(max_as_fraction) ||
      max_as_fraction > 1.0) {
    throw ConfigError("evolution.max_as_fraction must be in (0, 1]");
  }
}

std::vector<EpochDeltas> generate_deltas(const core::World& world,
                                         const PaperCalendar& calendar,
                                         const EvolutionSpec& spec,
                                         util::Rng& rng) {
  spec.validate();
  const topo::AsGraph& g = world.graph;
  const std::size_t n = g.num_ases();
  EvolvedState st(world);
  ip::Ipv6Allocator evo_pool(ip::Ipv6Prefix::parse_or_throw(kEvolutionPool),
                             kEvolutionPrefixLen);

  // Per-epoch AS-naming budget: the topology churn of one epoch.
  // Inflection rounds burst *site grants* (Fig. 1's steps are adoption by
  // sites, not topology churn), never the AS budget.
  const auto as_budget = static_cast<std::size_t>(
      std::max(2.0, static_cast<double>(n) * spec.max_as_fraction * spec.delta_rate));
  const double site_grant_base =
      std::max(1.0, static_cast<double>(world.catalog.size()) * 0.001 * spec.delta_rate);

  std::vector<EpochDeltas> out;
  for (const std::uint32_t round : calendar.epoch_rounds(spec.epoch_interval)) {
    EpochDeltas epoch;
    epoch.round = round;
    std::size_t named_as = 0;
    const auto can_name = [&](std::size_t count) {
      return named_as + count <= as_budget;
    };

    // --- New dual-stack ASes: enable + prefix + uplink, one trio each ---
    const std::size_t adoptions = std::max<std::size_t>(1, as_budget / 3);
    for (std::size_t i = 0; i < adoptions && can_name(2); ++i) {
      const Asn as = static_cast<Asn>(rng.index(n));
      if (st.as_v6[as] != 0) continue;
      const std::uint32_t uplink = uplink_candidate(g, st, as);
      if (uplink == topo::AsGraph::kNoLink) continue;
      const ip::Ipv6Prefix prefix = evo_pool.allocate();
      epoch.deltas.push_back(as_enables_v6(as));
      epoch.deltas.push_back(
          prefix_delta(WorldDeltaKind::kPrefixAnnounced, as, prefix));
      epoch.deltas.push_back(link_delta(WorldDeltaKind::kLinkEnablesV6, uplink));
      st.as_v6[as] = 1;
      st.link_v6[uplink] = 1;
      // The trio prefix is the AS's grant-hosting (native) prefix; it is
      // deliberately NOT added to the withdrawal pool — granted site
      // addresses live inside it for the rest of the campaign.
      st.native_prefix.emplace(as, prefix);
      named_as += 2;
    }

    // --- Established ASes announce additional prefixes -----------------
    // These extras form the withdrawal pool: they never host granted
    // sites, so withdrawing one later leaves every AAAA address with a
    // covering announcement in the origin map.
    if (rng.chance(0.5) && can_name(1)) {
      const Asn as = static_cast<Asn>(rng.index(n));
      if (st.as_v6[as] != 0 && st.native_prefix.count(as) != 0) {
        const ip::Ipv6Prefix prefix = evo_pool.allocate();
        epoch.deltas.push_back(
            prefix_delta(WorldDeltaKind::kPrefixAnnounced, as, prefix));
        st.announced.emplace_back(as, prefix);
        named_as += 1;
      }
    }

    // --- Peering parity improves: v6 enables on existing v4 links ------
    const std::size_t peerings = std::max<std::size_t>(1, as_budget / 4);
    for (std::size_t i = 0; i < peerings && can_name(2); ++i) {
      const auto link_id = static_cast<std::uint32_t>(rng.index(g.num_links()));
      const topo::AsLink& l = g.link(link_id);
      if (st.link_v6[link_id] != 0 || l.v6_tunnel) continue;
      if (st.as_v6[l.a] == 0 || st.as_v6[l.b] == 0) continue;
      epoch.deltas.push_back(link_delta(WorldDeltaKind::kLinkEnablesV6, link_id));
      st.link_v6[link_id] = 1;
      named_as += 2;
    }

    // --- Tunnel retirement, post-depletion: islands go native ----------
    if (calendar.phase_of(round) != PaperCalendar::Phase::kPreDepletion) {
      for (std::uint32_t id = 0; id < g.num_links() && can_name(2); ++id) {
        const topo::AsLink& l = g.link(id);
        if (!l.v6_tunnel || st.link_v6[id] == 0) continue;
        if (!rng.chance(0.10 * spec.delta_rate)) continue;
        // Only retire when the island keeps a native way out — a retired
        // tunnel must model an upgrade, not an outage.
        const std::uint32_t native = uplink_candidate(g, st, l.b);
        if (native == topo::AsGraph::kNoLink) continue;
        epoch.deltas.push_back(link_delta(WorldDeltaKind::kLinkEnablesV6, native));
        epoch.deltas.push_back(link_delta(WorldDeltaKind::kTunnelRetired, id));
        st.link_v6[native] = 1;
        st.link_v6[id] = 0;
        named_as += 2;
      }
    }

    // --- Occasional renumbering: withdraw an evolution prefix ----------
    if (!st.announced.empty() && rng.chance(0.25)) {
      const std::size_t pick = rng.index(st.announced.size());
      const auto [as, prefix] = st.announced[pick];
      if (can_name(1)) {
        epoch.deltas.push_back(
            prefix_delta(WorldDeltaKind::kPrefixWithdrawn, as, prefix));
        st.announced.erase(st.announced.begin() +
                           static_cast<std::ptrdiff_t>(pick));
        named_as += 1;
      }
    }

    // --- Sites gain AAAA records (Fig. 1's curve, steps included) ------
    const double burst = calendar.is_inflection(round) ? 6.0 : 1.0;
    const auto grants = static_cast<std::size_t>(site_grant_base * burst);
    for (std::size_t i = 0; i < grants; ++i) {
      const auto site_id = static_cast<std::uint32_t>(rng.index(world.catalog.size()));
      if (st.site_has_aaaa[site_id] != 0) continue;
      const web::Site& s = world.catalog.site(site_id);
      // Host on the site's own AS when it is (now) dual stack with a
      // native prefix; otherwise on a random established v6 AS (a DL
      // site — the content moved to a v6-capable host).
      Asn host = s.v4_as;
      if (st.as_v6[host] == 0 || st.native_prefix.count(host) == 0) {
        const Asn alt = static_cast<Asn>(rng.index(n));
        if (st.as_v6[alt] == 0 || st.native_prefix.count(alt) == 0) continue;
        host = alt;
      }
      const ip::Ipv6Address addr =
          ip::offset_address(st.native_prefix.at(host).network(),
                             kGrantHostBase + st.grant_hosts[host]++, 128);
      epoch.deltas.push_back(site_gains_aaaa(
          site_id, host, addr, static_cast<float>(rng.uniform(0.75, 1.0))));
      st.site_has_aaaa[site_id] = 1;
    }

    if (!epoch.deltas.empty()) out.push_back(std::move(epoch));
  }
  return out;
}

core::WorldTimeline build_timeline(const WorldSpec& spec) {
  core::World world = build_world(spec);
  if (!spec.evolution.enabled) {
    return core::WorldTimeline(std::move(world), {}, spec.build_threads);
  }
  PaperCalendar calendar;
  calendar.num_rounds = world.num_rounds;
  calendar.iana_depletion_round = spec.evolution.depletion_round;
  // epoch_rounds drops out-of-window inflections itself; a world without
  // a W6D round simply gets no W6D burst epoch.
  calendar.w6d_round = spec.w6d_round == web::kNever ? 0 : spec.w6d_round;
  // Independent child stream: the world's own RNG children ("topology",
  // "vantage", ...) are untouched, so epoch 0 stays bit-identical to
  // build_world(spec) whether or not evolution is on.
  util::Rng rng = util::Rng(spec.seed).child("evolution");
  std::vector<EpochDeltas> deltas =
      generate_deltas(world, calendar, spec.evolution, rng);
  return core::WorldTimeline(std::move(world), std::move(deltas),
                             spec.build_threads);
}

}  // namespace v6mon::scenario
