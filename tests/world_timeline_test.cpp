// The evolving-world engine's determinism contract, end to end:
//
//   1. An *empty* timeline is invisible — a campaign over it is
//      byte-identical to a campaign over the bare World (the frozen,
//      pre-epoch code path).
//   2. An *evolving* campaign is a pure function of (spec, seed): the
//      thread count and sink backend stay performance knobs, exactly as
//      for frozen campaigns.
//   3. After every epoch, each vantage point's IPv6 RIB holds, for every
//      tracked destination, the route an unscoped full recompute on the
//      advanced graph selects (2002::/16 included), and changed_dests
//      names every destination whose VP rows moved.
//   4. Applied deltas leave the world self-consistent: granted AAAA
//      addresses resolve to the granting AS in the origin map and the
//      catalog windows open at the epoch round.
//   5. Resolved-site rows that survive an epoch boundary still equal a
//      fresh resolution against the advanced world, and a 6to4 island
//      whose tunnel retired stops measuring over it.

#include "core/world_timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bgp/anycast.h"
#include "bgp/route_computer.h"
#include "core/campaign.h"
#include "core/thread_pool.h"
#include "core/vp_routes.h"
#include "core/world_delta.h"
#include "reference_schedule.h"
#include "scenario/evolution.h"
#include "scenario/world_builder.h"
#include "transport/path.h"
#include "util/error.h"

namespace v6mon::core {
namespace {

scenario::WorldSpec tiny_spec() {
  scenario::WorldSpec spec;
  spec.seed = 1103;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 25;
  spec.topology.num_stub = 120;
  spec.catalog.initial_sites = 2000;
  spec.catalog.churn_per_round = 10;
  spec.catalog.num_rounds = 8;
  spec.catalog.adoption = {0.5, 0.4, 0.3, 0.25, 0.2, 0.15};
  spec.w6d_round = 5;
  spec.vantage_points = {{.name = "VP-a",
                          .type = VantagePoint::Type::kAcademic,
                          .region = topo::Region::kNorthAmerica,
                          .start_round = 0,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSameProviders},
                         {.name = "VP-b",
                          .type = VantagePoint::Type::kCommercial,
                          .region = topo::Region::kEurope,
                          .start_round = 2,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSubsetProviders}};
  return spec;
}

/// tiny_spec with the evolving-world generator switched on: an epoch
/// every second round plus the inflections (depletion at 4, W6D at 5).
scenario::WorldSpec evolving_spec() {
  scenario::WorldSpec spec = tiny_spec();
  spec.evolution.enabled = true;
  spec.evolution.delta_rate = 4.0;  // tiny world: push hard enough to matter
  spec.evolution.epoch_interval = 2;
  spec.evolution.max_as_fraction = 0.05;
  spec.evolution.depletion_round = 4;
  return spec;
}

std::unique_ptr<Campaign> run_frozen(const World& world, CampaignConfig cfg) {
  auto campaign = std::make_unique<Campaign>(world, std::move(cfg));
  campaign->run();
  campaign->run_w6d();
  campaign->finalize();
  return campaign;
}

/// Timelines mutate as they advance, so every campaign run gets a fresh
/// one; the pair is kept alive together (Campaign holds a reference).
struct EvolvingRun {
  std::unique_ptr<WorldTimeline> timeline;
  std::unique_ptr<Campaign> campaign;
};

EvolvingRun start_evolving(const scenario::WorldSpec& spec, CampaignConfig cfg) {
  EvolvingRun run;
  run.timeline = std::make_unique<WorldTimeline>(scenario::build_timeline(spec));
  run.campaign = std::make_unique<Campaign>(*run.timeline, std::move(cfg));
  return run;
}

EvolvingRun run_evolving(const scenario::WorldSpec& spec, CampaignConfig cfg) {
  EvolvingRun run = start_evolving(spec, std::move(cfg));
  run.campaign->run();
  run.campaign->run_w6d();
  run.campaign->finalize();
  return run;
}

void expect_identical_observables(const Campaign& a, const Campaign& b) {
  ASSERT_EQ(a.world().vantage_points.size(), b.world().vantage_points.size());
  for (std::size_t vp = 0; vp < a.world().vantage_points.size(); ++vp) {
    SCOPED_TRACE(a.world().vantage_points[vp].name);
    EXPECT_EQ(a.results(vp).to_csv(), b.results(vp).to_csv());
    EXPECT_EQ(a.w6d_results(vp).to_csv(), b.w6d_results(vp).to_csv());
  }
}

// --- 1. Empty timeline == bare world ---------------------------------------

TEST(WorldTimeline, EmptyTimelineCampaignIsByteIdenticalToFrozenWorld) {
  const scenario::WorldSpec spec = tiny_spec();
  const World bare = scenario::build_world(spec);
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = 2;
  const auto frozen = run_frozen(bare, cfg);

  // build_timeline with evolution disabled: empty epoch stream, world
  // bit-identical to build_world's (no RNG stream disturbed).
  ASSERT_FALSE(spec.evolution.enabled);
  const auto evolved = run_evolving(spec, cfg);
  EXPECT_TRUE(evolved.timeline->empty());
  EXPECT_EQ(evolved.timeline->current_epoch(), 0u);

  expect_identical_observables(*frozen, *evolved.campaign);
}

// --- 2. Evolving determinism matrix ----------------------------------------

/// The serial reference (reference_schedule.h): in-memory store, one
/// thread, round-major advance_world(r) + run_round(vp, r), then W6D.
EvolvingRun run_evolving_reference(const scenario::WorldSpec& spec,
                                   CampaignConfig cfg) {
  cfg.threads = 1;
  cfg.sink = SinkBackend::kSharded;
  EvolvingRun run = start_evolving(spec, cfg);
  run_reference_schedule(*run.campaign, /*evolving=*/true);
  return run;
}

TEST(WorldTimeline, EvolvingCampaignThreadAndSinkInvisible) {
  const scenario::WorldSpec spec = evolving_spec();
  // Reference: a barrier at every round boundary is the plainest
  // quiescence guarantee for advance_to. Every run() cell (barriers at
  // epoch rounds only) must reproduce it byte for byte, across threads
  // and sinks. A round fans its sites out only with at least 16 per
  // worker: threads = 2 fans every round out, threads = 8 loops the
  // smallest rounds inline and fans out the rest.
  CampaignConfig ref_cfg;
  ref_cfg.seed = 2011;
  const auto reference = run_evolving_reference(spec, ref_cfg);
  ASSERT_GT(reference.timeline->num_epochs(), 0u)
      << "evolving_spec produced no epochs; the matrix tests nothing";
  EXPECT_EQ(reference.timeline->current_epoch(), reference.timeline->num_epochs());

  const std::string dir = ::testing::TempDir();
  int cell = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const SinkBackend sink : {SinkBackend::kSharded, SinkBackend::kSpool}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " sink=" + std::to_string(static_cast<int>(sink)));
      CampaignConfig cfg = reference.campaign->config();
      cfg.threads = threads;
      cfg.sink = sink;
      cfg.spool_dir = dir + "/evo" + std::to_string(cell++);
      if (sink == SinkBackend::kSpool) {
        std::filesystem::create_directories(cfg.spool_dir);
      }
      const auto run = run_evolving(spec, cfg);
      expect_identical_observables(*reference.campaign, *run.campaign);
    }
  }
}

// The bytes themselves, not only agreement between schedules. The
// digests are those of Campaign's former built-in round-major loop, so
// the reference schedule cannot drift from it.
TEST(WorldTimeline, EvolvingCampaignCsvBytesPinned) {
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.w6d_mini_rounds = 3;
  const auto reference = run_evolving_reference(evolving_spec(), cfg);
  std::string observations, w6d;
  for (std::size_t vp = 0; vp < reference.campaign->world().vantage_points.size();
       ++vp) {
    observations += reference.campaign->results(vp).to_csv();
    w6d += reference.campaign->w6d_results(vp).to_csv();
  }
  EXPECT_EQ(fnv1a64(observations), 0x97805ae9a43da873ULL)
      << observations.size() << " bytes";
  EXPECT_EQ(fnv1a64(w6d), 0xe6acdec85faa8bf7ULL) << w6d.size() << " bytes";
}

// --- 3. VP RIBs against an unscoped full recompute -------------------------

/// The destinations an evolving world keeps right, restated from the
/// rule rather than read from the timeline: v6 site hosts (incl.
/// relocations), tunnel relays, and every AS the delta stream names.
std::vector<topo::Asn> tracked_dests(const World& w,
                                     const std::vector<EpochDeltas>& epochs) {
  std::vector<std::uint8_t> tracked(w.graph.num_ases(), 0);
  for (std::uint32_t id = 0; id < w.graph.num_links(); ++id) {
    if (w.graph.link(id).v6_tunnel) tracked[w.graph.link(id).a] = 1;
  }
  for (const web::Site& s : w.catalog.sites()) {
    if (s.v6_record != web::kNoV6Record) tracked[w.catalog.v6_presence(s).as] = 1;
    const web::Hosting* h = w.catalog.relocation(s.id);
    if (h != nullptr && h->v6_as != topo::kNoAs) tracked[h->v6_as] = 1;
  }
  for (const EpochDeltas& e : epochs) {
    for (const WorldDelta& d : e.deltas) {
      if (d.as != topo::kNoAs) tracked[d.as] = 1;
      if (d.v6_as != topo::kNoAs) tracked[d.v6_as] = 1;
    }
  }
  std::vector<topo::Asn> out;
  for (topo::Asn a = 0; a < tracked.size(); ++a) {
    if (tracked[a] != 0) out.push_back(a);
  }
  return out;
}

/// One destination's IPv6 RIB row: for every vantage point and every
/// native (non-6to4) prefix the destination announces, the installed
/// route or nullopt. A destination without a native prefix has an empty
/// row: nothing in a RIB routes toward it.
using RibRow = std::vector<std::optional<bgp::RibEntry>>;

RibRow installed_row(const World& w, topo::Asn d) {
  RibRow row;
  for (const VantagePoint& vp : w.vantage_points) {
    for (const ip::Ipv6Prefix& p : w.graph.node(d).v6_prefixes) {
      if (p.network().is_6to4()) continue;
      const bgp::RibEntry* e = vp.rib.find_v6(p);
      row.push_back(e != nullptr ? std::optional<bgp::RibEntry>(*e) : std::nullopt);
    }
  }
  return row;
}

/// The same row derived from an unscoped full table on `w`'s graph.
RibRow full_recompute_row(const World& w, const bgp::FamilyView& view, topo::Asn d) {
  const bgp::RouteTable full = bgp::compute_routes_to(view, d);
  RibRow row;
  for (const VantagePoint& vp : w.vantage_points) {
    std::optional<bgp::RibEntry> route;
    if (w.graph.node(d).has_v6 && full.reachable(vp.asn)) {
      route = bgp::RibEntry{d, full.as_path(vp.asn)};
    }
    for (const ip::Ipv6Prefix& p : w.graph.node(d).v6_prefixes) {
      if (!p.network().is_6to4()) row.push_back(route);
    }
  }
  return row;
}

struct OracleCounts {
  std::size_t epochs = 0;
  std::size_t moved_rows = 0;   ///< Destinations whose RIB rows moved at an epoch.
  std::size_t lost_routes = 0;  ///< Installed routes an epoch took away.
  std::size_t retirements = 0;
  std::size_t withdrawals = 0;

  void add(const OracleCounts& c) {
    epochs += c.epochs;
    moved_rows += c.moved_rows;
    lost_routes += c.lost_routes;
    retirements += c.retirements;
    withdrawals += c.withdrawals;
  }
};

std::size_t routes_in(const RibRow& row) {
  return static_cast<std::size_t>(
      std::count_if(row.begin(), row.end(), [](const auto& e) { return e.has_value(); }));
}

/// Advances `timeline` round by round and, after every applied
/// epoch, checks each VP's v6 RIB against unscoped full tables on the
/// advanced graph: every tracked destination's native prefixes carry its
/// full-table route (or none), 2002::/16 carries the nearest live relay
/// over full relay tables, and changed_dests holds every destination
/// whose rows moved across the boundary.
OracleCounts check_ribs_every_epoch(WorldTimeline& timeline) {
  EXPECT_GT(timeline.num_epochs(), 0u);
  OracleCounts counts;
  for (const EpochDeltas& e : timeline.epochs()) {
    for (const WorldDelta& d : e.deltas) {
      counts.retirements += d.kind == WorldDeltaKind::kTunnelRetired ? 1 : 0;
      counts.withdrawals += d.kind == WorldDeltaKind::kPrefixWithdrawn ? 1 : 0;
    }
  }
  const World& w = timeline.world();
  const std::vector<topo::Asn> dests = tracked_dests(w, timeline.epochs());
  const auto installed_rows = [&] {
    std::vector<RibRow> rows;
    for (const topo::Asn d : dests) rows.push_back(installed_row(w, d));
    return rows;
  };

  for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
    const std::vector<RibRow> before = installed_rows();
    std::vector<bool> had_six_to_four;
    for (const VantagePoint& vp : w.vantage_points) {
      had_six_to_four.push_back(vp.rib.find_v6(bgp::six_to_four_prefix()) != nullptr);
    }
    for (const WorldChangeSummary& summary : timeline.advance_to(round)) {
      SCOPED_TRACE("epoch=" + std::to_string(summary.epoch));
      ++counts.epochs;
      const std::vector<RibRow> after = installed_rows();
      const bgp::FamilyView view(w.graph, ip::Family::kIpv6);
      for (std::size_t i = 0; i < dests.size(); ++i) {
        SCOPED_TRACE("dest=" + std::to_string(dests[i]));
        EXPECT_EQ(after[i], full_recompute_row(w, view, dests[i]));
        if (after[i] != before[i]) {
          ++counts.moved_rows;
          // Same prefixes, fewer routes: a destination became unreachable.
          if (after[i].size() == before[i].size() &&
              routes_in(after[i]) < routes_in(before[i])) {
            ++counts.lost_routes;
          }
          EXPECT_TRUE(summary.dest_changed(dests[i])) << "moved row not reported";
        }
      }

      std::vector<bgp::RouteTable> relay_tables;
      for (const topo::Asn r : bgp::live_tunnel_relays(w.graph)) {
        relay_tables.push_back(bgp::compute_routes_to(view, r));
      }
      std::vector<const bgp::RouteTable*> candidates;
      for (const bgp::RouteTable& t : relay_tables) candidates.push_back(&t);
      for (std::size_t k = 0; k < w.vantage_points.size(); ++k) {
        const VantagePoint& vp = w.vantage_points[k];
        const auto want = bgp::six_to_four_route(candidates, vp.asn);
        const bgp::RibEntry* have = vp.rib.find_v6(bgp::six_to_four_prefix());
        if (have == nullptr && had_six_to_four[k]) ++counts.lost_routes;
        EXPECT_EQ(have != nullptr, want.has_value()) << vp.name << " 2002::/16";
        if (have != nullptr && want) {
          EXPECT_EQ(*have, *want) << vp.name << " 2002::/16";
        }
      }
    }
  }
  EXPECT_EQ(timeline.current_epoch(), timeline.num_epochs());
  return counts;
}

// The timeline rebuilds only the vantage points' provider closure, so
// an unscoped compute_routes_to per tracked destination is independent
// of the scoping it relies on. Generated streams over several seeds and
// delta rates (one with half the v6 ASes on 6to4 islands, so tunnels
// retire), plus a hand-built epoch that retires every live tunnel with
// no native replacement: broker islands lose their only IPv6 route and,
// with no live relay left, every VP loses 2002::/16.
TEST(WorldTimeline, VpRibsMatchFullRecomputeAfterEveryEpoch) {
  OracleCounts total;
  for (const std::uint64_t seed : {1103u, 7u, 2011u}) {
    for (const double rate : {4.0, 1.0}) {
      scenario::WorldSpec spec = evolving_spec();
      spec.seed = seed;
      spec.evolution.delta_rate = rate;
      if (seed == 7) spec.addresses.six_to_four_fraction = 0.5;
      SCOPED_TRACE("seed=" + std::to_string(seed) + " delta_rate=" + std::to_string(rate));
      WorldTimeline timeline = scenario::build_timeline(spec);
      total.add(check_ribs_every_epoch(timeline));
    }
  }
  {
    SCOPED_TRACE("every tunnel retired");
    World world = scenario::build_world(tiny_spec());
    std::vector<EpochDeltas> epochs(1);
    epochs[0].round = 3;
    for (std::uint32_t id = 0; id < world.graph.num_links(); ++id) {
      if (!bgp::is_live_tunnel(world.graph.link(id))) continue;
      WorldDelta retire;
      retire.kind = WorldDeltaKind::kTunnelRetired;
      retire.link_id = id;
      epochs[0].deltas.push_back(retire);
    }
    WorldTimeline timeline(std::move(world), std::move(epochs));
    total.add(check_ribs_every_epoch(timeline));
  }
  // Not vacuous: rows moved and routes went away, and the streams
  // retired tunnels and withdrew prefixes.
  EXPECT_GT(total.epochs, 0u);
  EXPECT_GT(total.moved_rows, 0u);
  EXPECT_GT(total.lost_routes, 0u);
  EXPECT_GT(total.retirements, 0u);
  EXPECT_GT(total.withdrawals, 0u);
}

// core::sync_vp_routes diffs every wanted row against the RIB before it
// rewrites one, so a second pass on an unchanged world has nothing to do:
// after the world build (both families, over build_ribs' destinations)
// and after every epoch (IPv6, over the tracked set). One damaged row is
// the only one a pass then rewrites.
TEST(WorldTimeline, SecondRouteSyncRewritesNothing) {
  WorldTimeline timeline = scenario::build_timeline(evolving_spec());
  World& w = timeline.world();
  ThreadPool pool(2);
  const auto expect_no_rewrite = [&](ip::Family family,
                                     const std::vector<topo::Asn>& dests) {
    const VpRouteSync again = sync_vp_routes(w, family, dests, pool);
    EXPECT_EQ(again.rows_rewritten, 0u);
    EXPECT_EQ(again.prefixes_installed, 0u);
    EXPECT_TRUE(again.rewritten_dests.empty());
    EXPECT_GT(again.tables_computed, 0u);
  };

  std::set<topo::Asn> hosts;
  for (const web::Site& s : w.catalog.sites()) {
    hosts.insert(s.v4_as);
    if (s.v6_record != web::kNoV6Record) hosts.insert(w.catalog.v6_presence(s).as);
    if (const web::Hosting* h = w.catalog.relocation(s.id)) {
      hosts.insert(h->v4_as);
      if (h->v6_as != topo::kNoAs) hosts.insert(h->v6_as);
    }
  }
  const std::vector<topo::Asn> build_dests(hosts.begin(), hosts.end());
  {
    SCOPED_TRACE("after build");
    expect_no_rewrite(ip::Family::kIpv4, build_dests);
    expect_no_rewrite(ip::Family::kIpv6, build_dests);
  }

  // The diff sees damage: a withdrawn IPv4 row comes back, and nothing else.
  VantagePoint& vp = w.vantage_points[0];
  const auto routed = std::find_if(build_dests.begin(), build_dests.end(), [&](topo::Asn d) {
    const auto& prefixes = w.graph.node(d).v4_prefixes;
    return !prefixes.empty() && vp.rib.find_v4(prefixes.front()) != nullptr;
  });
  ASSERT_NE(routed, build_dests.end());
  const ip::Ipv4Prefix damaged = w.graph.node(*routed).v4_prefixes.front();
  const bgp::RibEntry kept = *vp.rib.find_v4(damaged);
  ASSERT_TRUE(vp.rib.erase_v4(damaged));
  const VpRouteSync repair = sync_vp_routes(w, ip::Family::kIpv4, build_dests, pool);
  EXPECT_EQ(repair.rows_rewritten, 1u);
  EXPECT_EQ(repair.rewritten_dests, std::vector<topo::Asn>{*routed});
  ASSERT_NE(vp.rib.find_v4(damaged), nullptr);
  EXPECT_EQ(*vp.rib.find_v4(damaged), kept);

  const std::vector<topo::Asn> tracked = tracked_dests(w, timeline.epochs());
  std::size_t epochs = 0;
  for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
    for (const WorldChangeSummary& summary : timeline.advance_to(round)) {
      SCOPED_TRACE("epoch=" + std::to_string(summary.epoch));
      ++epochs;
      expect_no_rewrite(ip::Family::kIpv6, tracked);
    }
  }
  EXPECT_GT(epochs, 0u);
  EXPECT_EQ(epochs, timeline.num_epochs());
}

// --- 4. Applied deltas leave a self-consistent world -----------------------

TEST(WorldTimeline, AppliedEpochsKeepWorldSelfConsistent) {
  WorldTimeline timeline = scenario::build_timeline(evolving_spec());
  ASSERT_FALSE(timeline.empty());

  const std::uint32_t last = timeline.world().num_rounds;
  for (std::uint32_t round = 0; round <= last; ++round) {
    for (const WorldChangeSummary& summary : timeline.advance_to(round)) {
      EXPECT_EQ(summary.round, round);
      const World& w = timeline.world();
      for (const std::uint32_t site_id : summary.sites_gained_aaaa) {
        const web::Site& site = w.catalog.site(site_id);
        // The AAAA window opens exactly at the epoch boundary...
        EXPECT_EQ(w.catalog.v6_presence(site).from_round, round);
        EXPECT_TRUE(w.catalog.dual_stack_at(site, round));
        // ...the granted address belongs to the hosting AS in the origin
        // map (DNS answers and BGP origins agree)...
        const web::V6Presence v6 = w.catalog.v6_presence(site);
        ASSERT_NE(v6.as, topo::kNoAs);
        const auto origin = w.origins.origin_v6(v6.addr);
        ASSERT_TRUE(origin.has_value());
        EXPECT_EQ(*origin, v6.as);
        // ...and the hosting AS speaks IPv6.
        EXPECT_TRUE(w.graph.node(v6.as).has_v6);
      }
    }
  }
  EXPECT_EQ(timeline.current_epoch(), timeline.num_epochs());
  EXPECT_FALSE(timeline.next_epoch_round().has_value());
}

// A grant appends one IPv6 presence record: the site answers the granted
// address from the grant's round on, and a second grant is rejected.
TEST(WorldTimeline, GrantAppendsV6Record) {
  WorldTimeline timeline = scenario::build_timeline(evolving_spec());
  const web::SiteCatalog& catalog = timeline.world().catalog;
  // The first epoch that grants an AAAA to a site that never relocates.
  const EpochDeltas* epoch = nullptr;
  const WorldDelta* grant = nullptr;
  for (const EpochDeltas& e : timeline.epochs()) {
    for (const WorldDelta& d : e.deltas) {
      if (d.kind == WorldDeltaKind::kSiteGainsAaaa &&
          !catalog.dynamics(catalog.site(d.site_id)).step_from_path_change) {
        epoch = &e;
        grant = &d;
        break;
      }
    }
    if (grant != nullptr) break;
  }
  ASSERT_NE(grant, nullptr) << "the evolving spec grants no AAAA";
  std::size_t grants = 0;
  for (const WorldDelta& d : epoch->deltas) {
    if (d.kind == WorldDeltaKind::kSiteGainsAaaa) ++grants;
  }

  const std::uint32_t site_id = grant->site_id;
  EXPECT_EQ(catalog.site(site_id).v6_record, web::kNoV6Record);
  const std::size_t records_before = catalog.v6_records().size();
  (void)timeline.advance_to(epoch->round);

  EXPECT_EQ(catalog.v6_records().size(), records_before + grants);
  const web::Site& site = catalog.site(site_id);
  ASSERT_NE(site.v6_record, web::kNoV6Record);
  EXPECT_GE(site.v6_record, records_before);
  const web::V6Presence v6 = catalog.v6_presence(site);
  EXPECT_EQ(v6.as, grant->v6_as);
  EXPECT_EQ(v6.addr, grant->v6_addr);
  EXPECT_EQ(v6.page_ratio, 1.0f);
  EXPECT_EQ(v6.server_factor, grant->v6_server_factor);
  EXPECT_EQ(v6.from_round, epoch->round);
  EXPECT_EQ(v6.until_round, web::kNever);
  EXPECT_FALSE(v6.w6d_participant);
  EXPECT_FALSE(catalog.dual_stack_at(site, epoch->round - 1));
  for (std::uint32_t round = epoch->round; round <= timeline.world().num_rounds; ++round) {
    EXPECT_TRUE(catalog.dual_stack_at(site, round));
    EXPECT_EQ(catalog.hosting_at(site, round).v6_addr, grant->v6_addr) << "round " << round;
  }
  EXPECT_THROW(timeline.world().catalog.grant_aaaa(site_id, epoch->round + 1, grant->v6_as,
                                                   grant->v6_addr, 1.0f),
               ConfigError);
  EXPECT_EQ(catalog.v6_records().size(), records_before + grants);
}

// The AAAA window lives in the IPv6 presence record and the step or trend
// in the Dynamics record: a grant to a site with a step or trend appends
// the one and leaves the other as it was.
TEST(WorldTimeline, GrantKeepsDynamicsRecord) {
  WorldTimeline timeline = scenario::build_timeline(evolving_spec());
  const web::SiteCatalog& catalog = timeline.world().catalog;
  const EpochDeltas* epoch = nullptr;
  const WorldDelta* grant = nullptr;
  for (const EpochDeltas& e : timeline.epochs()) {
    for (const WorldDelta& d : e.deltas) {
      if (d.kind == WorldDeltaKind::kSiteGainsAaaa &&
          catalog.site(d.site_id).dynamics != web::kNoDynamics) {
        epoch = &e;
        grant = &d;
        break;
      }
    }
    if (grant != nullptr) break;
  }
  ASSERT_NE(grant, nullptr) << "the evolving spec grants no AAAA to a site with dynamics";

  const std::uint32_t num_rounds = timeline.world().num_rounds;
  const std::uint32_t record = catalog.site(grant->site_id).dynamics;
  const web::Dynamics before = catalog.dynamics(catalog.site(grant->site_id));
  const std::size_t dynamics_before = catalog.dynamics_records().size();
  std::vector<double> multiplier_before;
  std::vector<std::uint8_t> epoch_before;
  for (std::uint32_t r = 0; r <= num_rounds; ++r) {
    multiplier_before.push_back(catalog.server_multiplier_at(catalog.site(grant->site_id), r));
    epoch_before.push_back(catalog.hosting_epoch(catalog.site(grant->site_id), r));
  }
  (void)timeline.advance_to(epoch->round);

  const web::Site& site = catalog.site(grant->site_id);
  ASSERT_NE(site.v6_record, web::kNoV6Record);
  EXPECT_EQ(site.dynamics, record);
  EXPECT_EQ(catalog.dynamics_records().size(), dynamics_before);
  const web::Dynamics after = catalog.dynamics(site);
  EXPECT_EQ(after.step_round, before.step_round);
  EXPECT_EQ(after.step_factor, before.step_factor);
  EXPECT_EQ(after.trend_per_round, before.trend_per_round);
  EXPECT_EQ(after.step_from_path_change, before.step_from_path_change);
  EXPECT_TRUE(after.step_round != web::kNever || after.trend_per_round != 0.0f);
  for (std::uint32_t r = 0; r <= num_rounds; ++r) {
    EXPECT_EQ(catalog.server_multiplier_at(site, r), multiplier_before[r]) << "round " << r;
    EXPECT_EQ(catalog.hosting_epoch(site, r), epoch_before[r]) << "round " << r;
  }
  EXPECT_EQ(catalog.v6_presence(site).from_round, epoch->round);
}

// --- 5. Row invalidation against a fresh resolution ------------------------

void expect_same_route(const bgp::RibEntry* cached, const bgp::RibEntry* fresh) {
  ASSERT_EQ(cached == nullptr, fresh == nullptr);
  if (cached == nullptr) return;
  EXPECT_EQ(cached->origin, fresh->origin);
  EXPECT_EQ(cached->as_path, fresh->as_path);
}

void expect_same_path(const transport::PathCharacteristics& cached,
                      const transport::PathCharacteristics& fresh) {
  EXPECT_EQ(cached.valid, fresh.valid);
  EXPECT_EQ(cached.rtt_ms, fresh.rtt_ms);
  EXPECT_EQ(cached.bottleneck_kBps, fresh.bottleneck_kBps);
  EXPECT_EQ(cached.as_hops, fresh.as_hops);
  EXPECT_EQ(cached.underlying_hops, fresh.underlying_hops);
  EXPECT_EQ(cached.via_tunnel, fresh.via_tunnel);
  EXPECT_EQ(cached.quality, fresh.quality);
}

struct RowCheckCounts {
  std::size_t survivors = 0;  ///< Rows checked after outliving a boundary.
  std::size_t refills = 0;    ///< Rows checked after a boundary re-resolved them.
  std::size_t memos = 0;      ///< Route memos checked.
};

/// Runs an evolving campaign on the reference schedule and, after every
/// round, checks the resolved-site row of every site dual-stack at that
/// round, in each VP whose index has an entry for it, against a fresh
/// resolution in the current world: the same RIB routes for the site's
/// answers, and — for every side Monitor::resolve_row characterizes —
/// the same characterize_path + path_quality. 6to4 v6 paths carry the
/// hidden relay leg on top; RetiredTunnelFailsSixToFourSites covers
/// them. Every RIB entry a fill characterized holds its path's normal
/// (transport::path_normal) in its memo, from the built world on.
RowCheckCounts check_rows_every_round(const scenario::WorldSpec& spec,
                                      FallbackPolicy policy) {
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = 1;
  cfg.monitor.fallback = policy;
  // kNone characterizes only rows routed in both families; a fallback
  // policy also characterizes the routed side of a failed row.
  const bool all_routed_sides = policy != FallbackPolicy::kNone;
  EvolvingRun run = start_evolving(spec, cfg);
  EXPECT_GT(run.timeline->num_epochs(), 0u);

  RowCheckCounts counts;
  const auto check_rows = [&](std::uint32_t round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const World& w = run.campaign->world();
    const std::uint32_t epoch = run.timeline->current_epoch();
    for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
      const VantagePoint& point = w.vantage_points[vp];
      const auto fresh = [&](const bgp::RibEntry& route, ip::Family family) {
        transport::PathCharacteristics pc =
            transport::characterize_path(w.graph, point.asn, route.as_path, family);
        pc.quality = transport::path_quality(route.as_path, cfg.monitor.path_quality_sigma);
        return pc;
      };
      const ResolvedSiteTable& rows = run.campaign->monitor(vp).resolved_sites();
      for (const web::Site& site : w.catalog.sites()) {
        if (!w.catalog.dual_stack_at(site, round)) continue;
        const std::uint32_t id =
            rows.find(site.v6_record, w.catalog.hosting_epoch(site, round));
        if (id == ResolvedSiteTable::kNoRow) continue;
        SCOPED_TRACE("vp=" + std::to_string(vp) + " site=" + std::to_string(site.id));
        const ResolvedSiteRow& row = rows.row(id);
        ASSERT_LE(row.world_epoch, epoch);
        if (row.world_epoch < epoch) ++counts.survivors;
        if (row.world_epoch > 0) ++counts.refills;

        const web::Hosting answers = w.catalog.hosting_at(site, round);
        const bgp::RibEntry* v4 = point.rib.lookup_v4(answers.v4_addr);
        const bgp::RibEntry* v6 = point.rib.lookup_v6(answers.v6_addr);
        expect_same_route(row.v4_route, v4);
        expect_same_route(row.v6_route, v6);
        const bool both = v4 != nullptr && v6 != nullptr;
        if (v4 != nullptr && (both || all_routed_sides)) {
          expect_same_path(row.v4_path, fresh(*v4, ip::Family::kIpv4));
        }
        if (v6 != nullptr && (both || all_routed_sides) && !answers.v6_addr.is_6to4()) {
          expect_same_path(row.v6_path, fresh(*v6, ip::Family::kIpv6));
        }
        for (const bgp::RibEntry* used : {row.v4_route, row.v6_route}) {
          if (used == nullptr || !(both || all_routed_sides) || used->as_path.empty()) {
            continue;
          }
          const std::optional<double> z = used->path_normal.value();
          ASSERT_TRUE(z.has_value());
          EXPECT_EQ(std::bit_cast<std::uint64_t>(*z),
                    std::bit_cast<std::uint64_t>(transport::path_normal(used->as_path)));
          ++counts.memos;
        }
      }
    }
  };
  run_reference_schedule(*run.campaign, /*evolving=*/true, check_rows);
  EXPECT_EQ(run.timeline->current_epoch(), run.timeline->num_epochs());
  return counts;
}

// The resolved-site rows are the only memo of RIB lookups and path
// characterizations, and Monitor::on_world_change is their only
// invalidation. Every row an index entry points at must equal a fresh
// resolution after every round — in particular the rows stamped before the current
// epoch, which survived at least one boundary. evolving_spec's dense
// deltas touch nearly every path each epoch, so a sparser stream (where
// most rows survive) runs too.
TEST(WorldTimeline, SurvivingRowsMatchFreshResolutionAfterEveryEpoch) {
  scenario::WorldSpec sparse = evolving_spec();
  sparse.evolution.delta_rate = 1.0;
  sparse.evolution.max_as_fraction = 0.02;
  RowCheckCounts total;
  for (const scenario::WorldSpec& spec : {evolving_spec(), sparse}) {
    for (const FallbackPolicy policy :
         {FallbackPolicy::kNone, FallbackPolicy::kSequential}) {
      SCOPED_TRACE("delta_rate=" + std::to_string(spec.evolution.delta_rate) +
                   " fallback=" + std::to_string(static_cast<int>(policy)));
      const RowCheckCounts counts = check_rows_every_round(spec, policy);
      total.survivors += counts.survivors;
      total.refills += counts.refills;
      total.memos += counts.memos;
    }
  }
  // Not vacuous: rows both outlived boundaries and were re-resolved.
  EXPECT_GT(total.survivors, 0u);
  EXPECT_GT(total.refills, 0u);
  EXPECT_GT(total.memos, 0u);
}

// Retiring an island's only tunnel means its relay stops serving it
// (AsGraph::retire_tunnel). The 2002::/16 anycast route survives while
// other relays serve other islands, but a 6to4 site on the dark island
// must fail its IPv6 side instead of measuring over the dead tunnel.
TEST(WorldTimeline, RetiredTunnelFailsSixToFourSites) {
  constexpr std::uint32_t kRetireRound = 4;
  scenario::WorldSpec spec = tiny_spec();
  spec.addresses.six_to_four_fraction = 0.5;  // enough 6to4 islands to pick from
  World world = scenario::build_world(spec);
  const auto island_of = [](const World& w, const web::Site& s) {
    return w.origins.origin_v4(w.catalog.v6_presence(s).addr.embedded_6to4_v4());
  };
  const auto live_tunnels = [](const World& w, topo::Asn island) {
    std::vector<std::uint32_t> ids;
    for (const topo::Adjacency& adj : w.graph.adjacencies(island)) {
      if (bgp::is_live_tunnel(w.graph.link(adj.link_id))) ids.push_back(adj.link_id);
    }
    return ids;
  };

  // A site on a 6to4 island, dual-stack from before the retirement to
  // the end of the campaign under one hosting.
  const web::Site* site = nullptr;
  for (const web::Site& s : world.catalog.sites()) {
    const web::V6Presence v6 = world.catalog.v6_presence(s);
    if (v6.from_round >= kRetireRound || v6.until_round != web::kNever ||
        world.catalog.first_seen_round(s) > v6.from_round ||
        world.catalog.dynamics(s).step_from_path_change ||
        !world.catalog.v6_presence(s).addr.is_6to4()) {
      continue;
    }
    const auto island = island_of(world, s);
    if (island.has_value() && live_tunnels(world, *island).size() == 1) {
      site = &s;
      break;
    }
  }
  ASSERT_NE(site, nullptr) << "no 6to4 site with a tunnel to retire";
  const std::uint32_t site_id = site->id;
  const topo::Asn island = *island_of(world, *site);
  ASSERT_GT(bgp::live_tunnel_relays(world.graph).size(), 1u)
      << "the anycast route must outlive the retired tunnel";

  std::vector<EpochDeltas> epochs(1);
  epochs[0].round = kRetireRound;
  WorldDelta retire;
  retire.kind = WorldDeltaKind::kTunnelRetired;
  retire.link_id = live_tunnels(world, island).front();
  epochs[0].deltas.push_back(retire);
  WorldTimeline timeline(std::move(world), std::move(epochs));

  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = 1;
  Campaign campaign(timeline, cfg);
  std::size_t rows_before = 0;
  std::size_t rows_after = 0;
  run_reference_schedule(campaign, /*evolving=*/true, [&](std::uint32_t round) {
    // VP-a monitors from round 0; its row for the site is refilled on
    // the first round after the boundary.
    const ResolvedSiteTable& rows = campaign.monitor(0).resolved_sites();
    const std::uint32_t id = rows.find(campaign.world().catalog.site(site_id).v6_record, 0);
    if (id == ResolvedSiteTable::kNoRow) return;
    SCOPED_TRACE("round=" + std::to_string(round));
    const ResolvedSiteRow& row = rows.row(id);
    ASSERT_NE(row.v6_route, nullptr) << "the 2002::/16 route is gone";
    if (round < kRetireRound) {
      EXPECT_TRUE(row.v6_path.valid);
      EXPECT_TRUE(row.v6_path.via_tunnel);
      ++rows_before;
    } else {
      EXPECT_TRUE(live_tunnels(campaign.world(), island).empty());
      EXPECT_FALSE(row.v6_path.valid);
      EXPECT_EQ(row.gate, MonitorStatus::kV6DownloadFailed);
      ++rows_after;
    }
  });
  EXPECT_GT(rows_before, 0u);
  EXPECT_GT(rows_after, 0u);
}

// --- Constructor contract ---------------------------------------------------

TEST(WorldTimeline, RejectsEpochAtRoundZeroAndNonAscendingRounds) {
  {
    std::vector<EpochDeltas> epochs(1);
    epochs[0].round = 0;
    EXPECT_THROW(WorldTimeline(scenario::build_world(tiny_spec()), epochs),
                 ConfigError);
  }
  {
    std::vector<EpochDeltas> epochs(2);
    epochs[0].round = 3;
    epochs[1].round = 3;  // not strictly ascending
    EXPECT_THROW(WorldTimeline(scenario::build_world(tiny_spec()), epochs),
                 ConfigError);
  }
}

// Advancing past a round with no pending epoch is a no-op (and cheap).
TEST(WorldTimeline, AdvancePastEndIsNoOp) {
  WorldTimeline timeline(scenario::build_world(tiny_spec()));
  EXPECT_TRUE(timeline.advance_to(1000).empty());
  EXPECT_EQ(timeline.current_epoch(), 0u);
}

}  // namespace
}  // namespace v6mon::core
