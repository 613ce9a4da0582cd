#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "bgp/anycast.h"
#include "bgp/route_computer.h"
#include "core/world_timeline.h"
#include "scenario/paper.h"
#include "scenario/world_builder.h"
#include "util/error.h"

namespace v6mon::scenario {
namespace {

WorldSpec tiny_spec(std::uint64_t seed) {
  WorldSpec spec;
  spec.seed = seed;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 25;
  spec.topology.num_stub = 120;
  spec.catalog.initial_sites = 2000;
  spec.catalog.churn_per_round = 10;
  spec.catalog.num_rounds = 8;
  spec.catalog.adoption = {0.5, 0.4, 0.3, 0.2, 0.15, 0.12};
  spec.vantage_points = {
      {.name = "VP1",
       .type = core::VantagePoint::Type::kAcademic,
       .region = topo::Region::kNorthAmerica,
       .start_round = 0,
       .has_as_path = true,
       .whitelisted = false,
       .uses_dns_cache_supplement = false,
       .num_v4_providers = 2,
       .v6_mode = V6UplinkMode::kSameProviders},
  };
  return spec;
}

TEST(WorldBuilder, BuildsConsistentWorld) {
  const auto world = build_world(tiny_spec(1));
  EXPECT_GT(world.graph.num_ases(), 140u);
  EXPECT_EQ(world.vantage_points.size(), 1u);
  EXPECT_EQ(world.num_rounds, 8u);
  const auto& vp = world.vantage_points[0];
  EXPECT_NE(vp.asn, topo::kNoAs);
  EXPECT_TRUE(world.graph.node(vp.asn).has_v6);
  EXPECT_GT(vp.rib.v4_routes(), 0u);
  EXPECT_GT(vp.rib.v6_routes(), 0u);
  // v6 routes are a strict subset phenomenon: fewer than v4.
  EXPECT_LT(vp.rib.v6_routes(), vp.rib.v4_routes());
}

TEST(WorldBuilder, Deterministic) {
  const auto a = build_world(tiny_spec(42));
  const auto b = build_world(tiny_spec(42));
  EXPECT_EQ(a.graph.num_ases(), b.graph.num_ases());
  EXPECT_EQ(a.graph.num_links(), b.graph.num_links());
  EXPECT_EQ(a.catalog.size(), b.catalog.size());
  EXPECT_EQ(a.vantage_points[0].rib.v4_routes(), b.vantage_points[0].rib.v4_routes());
  EXPECT_EQ(a.vantage_points[0].rib.v6_routes(), b.vantage_points[0].rib.v6_routes());
}

TEST(WorldBuilder, RibPathsResolveSites) {
  const auto world = build_world(tiny_spec(3));
  const auto& vp = world.vantage_points[0];
  int checked = 0;
  for (const web::Site& s : world.catalog.sites()) {
    if (checked > 200) break;
    ++checked;
    const auto* v4 = vp.rib.lookup_v4(s.v4_addr);
    ASSERT_NE(v4, nullptr) << "IPv4 must be universally routed";
    EXPECT_EQ(v4->origin, s.v4_as);
    if (s.v6_record != web::kNoV6Record) {
      const web::V6Presence p = world.catalog.v6_presence(s);
      const auto* v6 = vp.rib.lookup_v6(p.addr);
      if (v6 != nullptr) {
      EXPECT_EQ(v6->origin, p.as);
    }
    }
  }
}

TEST(WorldBuilder, TunnelOverlayRepairsIslands) {
  WorldSpec spec = tiny_spec(4);
  spec.tunnels = false;
  auto world = build_world(spec);

  // Count v6 islands (v6 ASes with no native route to the core).
  topo::Asn core = topo::kNoAs;
  for (topo::Asn t1 : world.graph.ases_of_tier(topo::Tier::kTier1)) {
    if (world.graph.node(t1).has_v6) {
      core = t1;
      break;
    }
  }
  ASSERT_NE(core, topo::kNoAs);
  const auto before = bgp::compute_routes_to(world.graph, ip::Family::kIpv6, core);
  std::size_t islands = 0;
  for (std::size_t i = 0; i < world.graph.num_ases(); ++i) {
    const auto asn = static_cast<topo::Asn>(i);
    if (world.graph.node(asn).has_v6 && asn != core && !before.reachable(asn)) {
      ++islands;
    }
  }

  util::Rng rng(9);
  const TunnelStats stats =
      apply_tunnel_overlay(world.graph, 4, 15.0, 0.85, rng);
  EXPECT_GE(stats.islands, islands);  // 6to4 announcers are islands too
  EXPECT_GT(stats.tunnels_added, 0u);
  EXPECT_EQ(stats.tunnels_added, stats.islands);  // v4 is fully connected

  // After the overlay, every island reaches the core over v6.
  const auto after = bgp::compute_routes_to(world.graph, ip::Family::kIpv6, core);
  for (std::size_t i = 0; i < world.graph.num_ases(); ++i) {
    const auto asn = static_cast<topo::Asn>(i);
    if (world.graph.node(asn).has_v6 && asn != core) {
      EXPECT_TRUE(after.reachable(asn)) << "AS" << asn;
    }
  }
}

TEST(WorldBuilder, TunnelMetricsDeriveFromUnderlay) {
  WorldSpec spec = tiny_spec(5);
  const auto world = build_world(spec);
  for (std::uint32_t i = 0; i < world.graph.num_links(); ++i) {
    const topo::AsLink& l = world.graph.link(i);
    if (!l.v6_tunnel) continue;
    EXPECT_GE(l.tunnel_underlying_hops, 1u);
    EXPECT_GT(l.metrics.latency_ms, 0.0);
    EXPECT_GT(l.metrics.bandwidth_kBps, 0.0);
    EXPECT_DOUBLE_EQ(l.tunnel_bandwidth_factor, 0.85);
    EXPECT_FALSE(l.in_v4);
    EXPECT_TRUE(l.in_v6);
  }
}

/// Every route of a RIB as (prefix, origin, AS_PATH) rows, both families.
using RibRows = std::vector<std::tuple<std::string, topo::Asn, std::vector<topo::Asn>>>;

RibRows rib_rows(const bgp::Rib& rib) {
  RibRows rows;
  rib.for_each_v4([&](const ip::Ipv4Prefix& p, const bgp::RibEntry& e) {
    rows.emplace_back(p.to_string(), e.origin, e.as_path);
  });
  rib.for_each_v6([&](const ip::Ipv6Prefix& p, const bgp::RibEntry& e) {
    rows.emplace_back(p.to_string(), e.origin, e.as_path);
  });
  return rows;
}

/// What build_ribs must install, rebuilt from full route tables one
/// destination at a time — no scopes, windows or thread pool.
std::vector<bgp::Rib> reference_ribs(const core::World& world) {
  const topo::AsGraph& g = world.graph;
  std::vector<bgp::Rib> ribs(world.vantage_points.size());
  std::set<topo::Asn> relays;
  for (std::uint32_t id = 0; id < g.num_links(); ++id) {
    if (g.link(id).v6_tunnel && g.link(id).in_v6) relays.insert(g.link(id).a);
  }
  for (std::size_t v = 0; v < ribs.size(); ++v) {
    const topo::Asn src = world.vantage_points[v].asn;
    std::optional<bgp::RouteTable> best;
    for (const topo::Asn r : relays) {  // nearest relay, lowest ASN on a tie
      auto t = bgp::compute_routes_to(g, ip::Family::kIpv6, r);
      if (t.reachable(src) && (!best || t.path_length(src) < best->path_length(src))) {
        best = std::move(t);
      }
    }
    if (best) ribs[v].add_v6(bgp::six_to_four_prefix(), {best->dest(), best->as_path(src)});
  }
  std::set<topo::Asn> dests;
  for (const web::Site& s : world.catalog.sites()) {
    dests.insert(s.v4_as);
    if (s.v6_record != web::kNoV6Record) dests.insert(world.catalog.v6_presence(s).as);
    if (const web::Hosting* h = world.catalog.relocation(s.id)) {
      dests.insert(h->v4_as);
      if (h->v6_as != topo::kNoAs) dests.insert(h->v6_as);
    }
  }
  for (const topo::Asn d : dests) {
    const topo::AsNode& dn = g.node(d);
    const auto v4 = bgp::compute_routes_to(g, ip::Family::kIpv4, d);
    const auto v6 = bgp::compute_routes_to(g, ip::Family::kIpv6, d);
    for (std::size_t v = 0; v < ribs.size(); ++v) {
      const topo::Asn src = world.vantage_points[v].asn;
      if (v4.reachable(src)) {
        for (const auto& p : dn.v4_prefixes) ribs[v].add_v4(p, {d, v4.as_path(src)});
      }
      if (dn.has_v6 && v6.reachable(src)) {
        for (const auto& p : dn.v6_prefixes) {
          if (!p.network().is_6to4()) ribs[v].add_v6(p, {d, v6.as_path(src)});
        }
      }
    }
  }
  return ribs;
}

// build_ribs converges over the vantage points' provider closure only;
// every route it installs must still be the full table's.
TEST(WorldBuilder, RibsMatchFullTableReference) {
  for (const std::size_t threads : {1u, 4u}) {
    WorldSpec spec = paper_spec(2011, 0.1);
    spec.build_threads = threads;
    const core::World world = build_world(spec);
    const std::vector<bgp::Rib> want = reference_ribs(world);
    std::size_t six_to_four = 0;
    for (std::size_t v = 0; v < world.vantage_points.size(); ++v) {
      const bgp::Rib& got = world.vantage_points[v].rib;
      EXPECT_EQ(got.v4_routes(), want[v].v4_routes());
      EXPECT_EQ(got.v6_routes(), want[v].v6_routes());
      EXPECT_EQ(rib_rows(got), rib_rows(want[v]))
          << world.vantage_points[v].name << " threads=" << threads;
      if (got.lookup_v6(ip::Ipv6Address::parse_or_throw("2002::1")) != nullptr) {
        ++six_to_four;
      }
    }
    EXPECT_GT(six_to_four, 0u) << "no vantage point carries a 2002::/16 route";
  }
}

// The 6to4 anycast election must skip a relay whose tunnels were all
// retired, in build_ribs and in the epoch engine alike — even though the
// relay itself is still routed natively and was the nearest before.
TEST(WorldBuilder, RetiredRelayIsNeverElected) {
  const ip::Ipv6Address anycast = ip::Ipv6Address::parse_or_throw("2002::1");
  core::World world = build_world(tiny_spec(6));
  const topo::Asn vp_as = world.vantage_points[0].asn;
  const bgp::RibEntry* before = world.vantage_points[0].rib.lookup_v6(anycast);
  ASSERT_NE(before, nullptr);
  const topo::Asn relay = before->origin;

  core::EpochDeltas epoch;
  epoch.round = 1;
  for (std::uint32_t id = 0; id < world.graph.num_links(); ++id) {
    const topo::AsLink& l = world.graph.link(id);
    if (l.v6_tunnel && l.a == relay) {
      core::WorldDelta d;
      d.kind = core::WorldDeltaKind::kTunnelRetired;
      d.link_id = id;
      epoch.deltas.push_back(d);
    }
  }
  ASSERT_FALSE(epoch.deltas.empty());
  core::WorldTimeline timeline(world, {epoch}, /*build_threads=*/1);
  (void)timeline.advance_to(1);
  core::World& advanced = timeline.world();
  const auto relays = bgp::live_tunnel_relays(advanced.graph);
  EXPECT_EQ(std::count(relays.begin(), relays.end(), relay), 0);
  ASSERT_TRUE(bgp::compute_routes_to(advanced.graph, ip::Family::kIpv6, relay)
                  .reachable(vp_as))
      << "the retired relay must stay natively reachable for this test to bite";

  const bgp::RibEntry* evolved = advanced.vantage_points[0].rib.lookup_v6(anycast);
  core::World rebuilt = advanced;
  for (core::VantagePoint& vp : rebuilt.vantage_points) vp.rib = bgp::Rib();
  build_ribs(rebuilt, 1);
  const bgp::RibEntry* fresh = rebuilt.vantage_points[0].rib.lookup_v6(anycast);
  ASSERT_EQ(evolved == nullptr, fresh == nullptr);
  if (fresh != nullptr) {
    EXPECT_NE(fresh->origin, relay);
    EXPECT_EQ(evolved->origin, fresh->origin);
    EXPECT_EQ(evolved->as_path, fresh->as_path);
  }
}

TEST(PaperScenario, SpecMatchesTable1) {
  const auto spec = paper_spec(1, /*scale=*/0.1);
  ASSERT_EQ(spec.vantage_points.size(), 6u);
  std::set<std::string> with_as_path, whitelisted;
  for (const auto& vp : spec.vantage_points) {
    if (vp.has_as_path) with_as_path.insert(vp.name);
    if (vp.whitelisted) whitelisted.insert(vp.name);
  }
  EXPECT_EQ(with_as_path, (std::set<std::string>{"Penn", "Comcast", "LU", "UPCB"}));
  EXPECT_EQ(whitelisted, (std::set<std::string>{"UPCB"}));
  // Start order per Table 1: Penn < Comcast < UPCB < Tsinghua < LU < Go6.
  std::uint32_t prev = 0;
  for (const char* name : {"Penn", "Comcast", "UPCB", "Tsinghua", "LU", "Go6"}) {
    for (const auto& vp : spec.vantage_points) {
      if (vp.name == name) {
        EXPECT_GE(vp.start_round, prev) << name;
        prev = vp.start_round;
      }
    }
  }
  // Event rounds inside the calendar.
  EXPECT_LT(spec.w6d_round, spec.catalog.num_rounds);
}

TEST(PaperScenario, SmallScaleWorldBuilds) {
  const auto world = build_paper_world(123, /*scale=*/0.05);
  EXPECT_EQ(world.vantage_points.size(), 6u);
  const auto vps = paper_vp_indices(world);
  EXPECT_EQ(world.vantage_points[vps.penn].name, "Penn");
  EXPECT_TRUE(world.vantage_points[vps.penn].uses_dns_cache_supplement);
  EXPECT_EQ(world.vantage_points[vps.upcb].name, "UPCB");
  EXPECT_TRUE(world.vantage_points[vps.upcb].whitelisted);
  // Reachability grows over the campaign with a jump at W6D.
  const double start = world.catalog.reachability_at(0);
  const double before_w6d = world.catalog.reachability_at(world.w6d_round - 1);
  const double after_w6d = world.catalog.reachability_at(world.w6d_round);
  const double end = world.catalog.reachability_at(world.num_rounds);
  EXPECT_GT(end, start * 2);
  EXPECT_GT(after_w6d - before_w6d, 0.001);
}

TEST(PaperScenario, RejectsBadScale) {
  EXPECT_THROW(paper_spec(1, 0.0), v6mon::ConfigError);
  EXPECT_THROW(paper_spec(1, 100.0), v6mon::ConfigError);
}

TEST(PaperScenario, LargestScaleBuilds) {
  // The bound is tight: the address plan at kMaxPaperScale has room for
  // every AS, and a handful more ASes exhaust the IPv4 prefix pool.
  WorldSpec spec = paper_spec(2011, kMaxPaperScale);
  spec.build_threads = 2;
  const core::World world = build_world(spec);
  EXPECT_LE(world.graph.num_ases(), 4096u);
  EXPECT_GT(world.graph.num_ases(), 4096u - 10u);
  spec.topology.num_stub += 4096 - world.graph.num_ases() + 1;
  EXPECT_THROW((void)build_world(spec), v6mon::Error);
}

TEST(PaperScenario, ScaleAboveBoundNamesTheLimit) {
  try {
    (void)paper_spec(2011, 1.37);
    FAIL() << "scale 1.37 accepted";
  } catch (const v6mon::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("1.36"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace v6mon::scenario
