// The evolving-world engine's determinism contract, end to end:
//
//   1. An *empty* timeline is invisible — a campaign over it is
//      byte-identical to a campaign over the bare World (the frozen,
//      pre-epoch code path).
//   2. An *evolving* campaign is a pure function of (spec, seed): the
//      thread count and sink backend stay performance knobs, exactly as
//      for frozen campaigns.
//   3. The incremental RIB path (compute_routes_delta over the dirty-AS
//      frontier) and the from-scratch rebuild mode produce byte-identical
//      campaigns — the per-epoch oracle of bgp_delta_test, lifted to the
//      full pipeline.
//   4. Applied deltas leave the world self-consistent: granted AAAA
//      addresses resolve to the granting AS in the origin map and the
//      catalog windows open at the epoch round.
//   5. Resolved-site rows that survive an epoch boundary still equal a
//      fresh resolution against the advanced world, and a 6to4 island
//      whose tunnel retired stops measuring over it.

#include "core/world_timeline.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bgp/anycast.h"
#include "core/campaign.h"
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

EvolvingRun start_evolving(const scenario::WorldSpec& spec, CampaignConfig cfg,
                           EpochAdvanceMode mode = EpochAdvanceMode::kIncremental) {
  EvolvingRun run;
  run.timeline = std::make_unique<WorldTimeline>(scenario::build_timeline(spec));
  run.timeline->set_advance_mode(mode);
  run.campaign = std::make_unique<Campaign>(*run.timeline, std::move(cfg));
  return run;
}

EvolvingRun run_evolving(const scenario::WorldSpec& spec, CampaignConfig cfg,
                         EpochAdvanceMode mode = EpochAdvanceMode::kIncremental) {
  EvolvingRun run = start_evolving(spec, std::move(cfg), mode);
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

/// The serial reference (reference_schedule.h): mutex sink, one thread,
/// round-major advance_world(r) + run_round(vp, r), then W6D.
EvolvingRun run_evolving_reference(const scenario::WorldSpec& spec,
                                   CampaignConfig cfg) {
  cfg.threads = 1;
  cfg.sink = SinkBackend::kMutex;
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
    for (const SinkBackend sink :
         {SinkBackend::kMutex, SinkBackend::kSharded, SinkBackend::kSpool}) {
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

// --- 3. Incremental == full rebuild, end to end ----------------------------

TEST(WorldTimeline, IncrementalAdvanceByteIdenticalToFullRebuild) {
  const scenario::WorldSpec spec = evolving_spec();
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = 4;

  const auto incremental = run_evolving(spec, cfg, EpochAdvanceMode::kIncremental);
  const auto rebuild = run_evolving(spec, cfg, EpochAdvanceMode::kFullRebuild);

  expect_identical_observables(*incremental.campaign, *rebuild.campaign);

  // The incremental path must actually have run incrementally (else the
  // comparison is rebuild-vs-rebuild and proves nothing).
  std::size_t delta_recomputes = 0;
  std::size_t fallbacks = 0;
  for (const EpochStats& s : incremental.timeline->epoch_stats()) {
    delta_recomputes += s.delta_recomputes;
    fallbacks += s.fallbacks;
  }
  EXPECT_GT(delta_recomputes, 0u);
  EXPECT_EQ(fallbacks, 0u) << "tiny-world deltas should never exhaust the budget";
  for (const EpochStats& s : rebuild.timeline->epoch_stats()) {
    EXPECT_EQ(s.delta_recomputes, 0u);
  }
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
        EXPECT_EQ(site.v6_from_round, round);
        EXPECT_TRUE(site.dual_stack_at(round));
        // ...the granted address belongs to the hosting AS in the origin
        // map (DNS answers and BGP origins agree)...
        ASSERT_NE(site.v6_as, topo::kNoAs);
        const auto origin = w.origins.origin_v6(site.v6_addr);
        ASSERT_TRUE(origin.has_value());
        EXPECT_EQ(*origin, site.v6_as);
        // ...and the hosting AS speaks IPv6.
        EXPECT_TRUE(w.graph.node(site.v6_as).has_v6);
      }
      // Every changed dest must have a tracked table, and that table must
      // be live (reachable from somewhere, or legitimately dark).
      for (const topo::Asn d : summary.changed_dests) {
        EXPECT_NE(timeline.v6_table(d), nullptr);
      }
    }
  }
  EXPECT_EQ(timeline.current_epoch(), timeline.num_epochs());
  EXPECT_FALSE(timeline.next_epoch_round().has_value());
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
};

/// Runs an evolving campaign on the reference schedule and, after every
/// round, checks each VP's filled resolved-site rows against a fresh
/// resolution in the current world: the same RIB routes for the row's
/// addresses, and — for every side resolve_addresses characterizes —
/// the same characterize_path + path_quality. 6to4 v6 paths carry the
/// hidden relay leg on top; RetiredTunnelFailsSixToFourSites covers
/// them.
RowCheckCounts check_rows_every_round(const scenario::WorldSpec& spec,
                                      FallbackPolicy policy) {
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = 1;
  cfg.sink = SinkBackend::kMutex;
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
      for (std::uint32_t slot = 0; slot < rows.size(); ++slot) {
        if (!rows.filled(slot)) continue;
        SCOPED_TRACE("vp=" + std::to_string(vp) +
                     " site=" + std::to_string(rows.site_id(slot)));
        ASSERT_LE(rows.world_epoch(slot), epoch);
        if (rows.world_epoch(slot) < epoch) ++counts.survivors;
        if (rows.world_epoch(slot) > 0) ++counts.refills;

        const ResolvedSiteRow& row = rows.row(slot);
        const bgp::RibEntry* v4 = point.rib.lookup_v4(row.v4_addr);
        const bgp::RibEntry* v6 = point.rib.lookup_v6(row.v6_addr);
        expect_same_route(row.v4_route, v4);
        expect_same_route(row.v6_route, v6);
        const bool both = v4 != nullptr && v6 != nullptr;
        if (v4 != nullptr && (both || all_routed_sides)) {
          expect_same_path(row.v4_path, fresh(*v4, ip::Family::kIpv4));
        }
        if (v6 != nullptr && (both || all_routed_sides) && !row.v6_addr.is_6to4()) {
          expect_same_path(row.v6_path, fresh(*v6, ip::Family::kIpv6));
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
// invalidation. Every filled row must equal a fresh resolution after
// every round — in particular the rows stamped before the current
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
    }
  }
  // Not vacuous: rows both outlived boundaries and were re-resolved.
  EXPECT_GT(total.survivors, 0u);
  EXPECT_GT(total.refills, 0u);
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
    return w.origins.origin_v4(s.v6_addr.embedded_6to4_v4());
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
    if (s.v6_from_round >= kRetireRound || s.v6_until_round != web::kNever ||
        s.first_seen_round > s.v6_from_round || s.step_from_path_change ||
        !s.v6_addr.is_6to4()) {
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
  cfg.sink = SinkBackend::kMutex;
  Campaign campaign(timeline, cfg);
  std::size_t rows_before = 0;
  std::size_t rows_after = 0;
  run_reference_schedule(campaign, /*evolving=*/true, [&](std::uint32_t round) {
    // VP-a monitors from round 0; its row for the site is refilled on
    // the first round after the boundary.
    const ResolvedSiteTable& rows = campaign.monitor(0).resolved_sites();
    const std::uint32_t slot = rows.find(site_id, 0);
    if (slot == ResolvedSiteTable::kNoSlot || !rows.filled(slot)) return;
    SCOPED_TRACE("round=" + std::to_string(round));
    const ResolvedSiteRow& row = rows.row(slot);
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
