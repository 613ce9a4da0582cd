#include "bgp/route_computer.h"

#include <gtest/gtest.h>

#include "scenario/world_builder.h"
#include "topo/generator.h"
#include "util/error.h"
#include "util/rng.h"

namespace v6mon::bgp {
namespace {

using topo::AsGraph;
using topo::Asn;
using topo::Region;
using topo::Relationship;
using topo::Tier;

/// Small hand-built topology (edges: tier-1 peer mesh T1a--T1b; transits
/// Ta,Tb under T1a and Tc under T1b; stubs S1 under Ta, S2 under Tb+Tc,
/// S3 under Tc) plus a peering link Ta--Tb.
struct Fixture {
  AsGraph g;
  Asn t1a, t1b, ta, tb, tc, s1, s2, s3;

  Fixture() {
    t1a = g.add_as(Tier::kTier1, Region::kNorthAmerica);
    t1b = g.add_as(Tier::kTier1, Region::kEurope);
    ta = g.add_as(Tier::kTransit, Region::kNorthAmerica);
    tb = g.add_as(Tier::kTransit, Region::kNorthAmerica);
    tc = g.add_as(Tier::kTransit, Region::kEurope);
    s1 = g.add_as(Tier::kStub, Region::kNorthAmerica);
    s2 = g.add_as(Tier::kStub, Region::kNorthAmerica);
    s3 = g.add_as(Tier::kStub, Region::kEurope);

    auto link = [this](Asn a, Asn b, Relationship rel, bool v6 = true) {
      g.add_link(a, b, rel, /*in_v4=*/true, v6, {});
    };
    link(t1a, t1b, Relationship::kPeerPeer);
    link(t1a, ta, Relationship::kProviderCustomer);
    link(t1a, tb, Relationship::kProviderCustomer);
    link(t1b, tc, Relationship::kProviderCustomer);
    link(ta, tb, Relationship::kPeerPeer);
    link(ta, s1, Relationship::kProviderCustomer);
    link(tb, s2, Relationship::kProviderCustomer);
    link(tc, s2, Relationship::kProviderCustomer);  // s2 is multihomed
    link(tc, s3, Relationship::kProviderCustomer);
  }
};

TEST(RouteComputer, OriginAndDirectCustomer) {
  Fixture f;
  const RouteTable t = compute_routes_to(f.g, ip::Family::kIpv4, f.s1);
  EXPECT_EQ(t.route_class(f.s1), RouteClass::kOrigin);
  EXPECT_EQ(t.path_length(f.s1), 0u);
  EXPECT_TRUE(t.as_path(f.s1).empty());
  // Ta hears from its customer s1.
  EXPECT_EQ(t.route_class(f.ta), RouteClass::kCustomer);
  EXPECT_EQ(t.path_length(f.ta), 1u);
  EXPECT_EQ(t.as_path(f.ta), std::vector<Asn>({f.s1}));
}

TEST(RouteComputer, CustomerChainClimbsProviders) {
  Fixture f;
  const RouteTable t = compute_routes_to(f.g, ip::Family::kIpv4, f.s1);
  EXPECT_EQ(t.route_class(f.t1a), RouteClass::kCustomer);
  EXPECT_EQ(t.as_path(f.t1a), std::vector<Asn>({f.ta, f.s1}));
}

TEST(RouteComputer, PeerRoutePreferredOverProvider) {
  Fixture f;
  const RouteTable t = compute_routes_to(f.g, ip::Family::kIpv4, f.s1);
  // Tb has no customer route to s1. Via peer Ta: [ta, s1]. Via provider
  // T1a: [t1a, ta, s1]. Peer must win.
  EXPECT_EQ(t.route_class(f.tb), RouteClass::kPeer);
  EXPECT_EQ(t.as_path(f.tb), std::vector<Asn>({f.ta, f.s1}));
}

TEST(RouteComputer, ProviderRouteWhenNothingElse) {
  Fixture f;
  const RouteTable t = compute_routes_to(f.g, ip::Family::kIpv4, f.s1);
  // s3 -> tc -> t1b -> t1a -> ta -> s1: pure provider chain then down.
  EXPECT_EQ(t.route_class(f.s3), RouteClass::kProvider);
  EXPECT_EQ(t.as_path(f.s3), std::vector<Asn>({f.tc, f.t1b, f.t1a, f.ta, f.s1}));
  EXPECT_EQ(t.path_length(f.s3), 5u);
}

TEST(RouteComputer, CustomerPreferredEvenIfLonger) {
  // Build: dest D is customer of X which is customer of Y; probe AS P is
  // provider of Y and peer of D. P's customer route via Y is length 3;
  // its peer route via D directly would be length 1 — customer must win.
  AsGraph g;
  const Asn d = g.add_as(Tier::kStub, Region::kEurope);
  const Asn x = g.add_as(Tier::kTransit, Region::kEurope);
  const Asn y = g.add_as(Tier::kTransit, Region::kEurope);
  const Asn p = g.add_as(Tier::kTier1, Region::kEurope);
  g.add_link(x, d, Relationship::kProviderCustomer, true, false, {});
  g.add_link(y, x, Relationship::kProviderCustomer, true, false, {});
  g.add_link(p, y, Relationship::kProviderCustomer, true, false, {});
  g.add_link(p, d, Relationship::kPeerPeer, true, false, {});
  const RouteTable t = compute_routes_to(g, ip::Family::kIpv4, d);
  EXPECT_EQ(t.route_class(p), RouteClass::kCustomer);
  EXPECT_EQ(t.as_path(p), std::vector<Asn>({y, x, d}));
}

TEST(RouteComputer, ValleyFreeRejectsCustomerPeerProviderDetour) {
  // Two stubs under different providers that peer with each other must
  // NOT be transited through: s2 -> tb(peer ta?) no. Check s1 cannot be
  // reached through another stub.
  AsGraph g;
  const Asn p1 = g.add_as(Tier::kTransit, Region::kEurope);
  const Asn p2 = g.add_as(Tier::kTransit, Region::kEurope);
  const Asn a = g.add_as(Tier::kStub, Region::kEurope);
  const Asn b = g.add_as(Tier::kStub, Region::kEurope);
  g.add_link(p1, a, Relationship::kProviderCustomer, true, false, {});
  g.add_link(p2, b, Relationship::kProviderCustomer, true, false, {});
  g.add_link(a, b, Relationship::kPeerPeer, true, false, {});
  // No p1--p2 connectivity at all: the only physical path p1->a->b->p2
  // is valley (down, peer, up) and must be rejected.
  const RouteTable t = compute_routes_to(g, ip::Family::kIpv4, p2);
  // b reaches through its provider p2. a's only candidate route would be
  // a->b (peer) then b->p2 (up) — peer-then-up violates valley-freedom,
  // so a (and p1 above it) must be unreachable.
  EXPECT_TRUE(t.reachable(b));
  EXPECT_EQ(t.route_class(b), RouteClass::kProvider);
  EXPECT_FALSE(t.reachable(a));
  EXPECT_FALSE(t.reachable(p1));
}

TEST(RouteComputer, FamilyFiltering) {
  // A v4-only access link must carry v4 routes but not v6 routes.
  AsGraph h;
  const Asn prov = h.add_as(Tier::kTransit, Region::kEurope);
  const Asn stub = h.add_as(Tier::kStub, Region::kEurope);
  h.add_link(prov, stub, Relationship::kProviderCustomer, /*v4=*/true,
             /*v6=*/false, {});
  const RouteTable v4 = compute_routes_to(h, ip::Family::kIpv4, stub);
  const RouteTable v6 = compute_routes_to(h, ip::Family::kIpv6, stub);
  EXPECT_TRUE(v4.reachable(prov));
  EXPECT_FALSE(v6.reachable(prov));
}

TEST(RouteComputer, TieBreakIsStableAndValid) {
  // Dest D has two providers P1, P2; probe AS X is provider of both.
  // Both give X a 2-hop customer route; the tie-break (a stable hash,
  // mimicking router-id/route-age arbitrariness) must pick one of them
  // deterministically.
  AsGraph g;
  const Asn d = g.add_as(Tier::kStub, Region::kEurope);      // 0
  const Asn p1 = g.add_as(Tier::kTransit, Region::kEurope);  // 1
  const Asn p2 = g.add_as(Tier::kTransit, Region::kEurope);  // 2
  const Asn x = g.add_as(Tier::kTier1, Region::kEurope);     // 3
  g.add_link(p1, d, Relationship::kProviderCustomer, true, false, {});
  g.add_link(p2, d, Relationship::kProviderCustomer, true, false, {});
  g.add_link(x, p1, Relationship::kProviderCustomer, true, false, {});
  g.add_link(x, p2, Relationship::kProviderCustomer, true, false, {});
  const RouteTable t = compute_routes_to(g, ip::Family::kIpv4, d);
  const auto path = t.as_path(x);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_TRUE(path[0] == p1 || path[0] == p2);
  EXPECT_EQ(path[1], d);
  // Stable across recomputation.
  const RouteTable t2 = compute_routes_to(g, ip::Family::kIpv4, d);
  EXPECT_EQ(t2.as_path(x), path);
}

TEST(RouteComputer, TieBreakSpreadsAcrossDestinations) {
  // Many destinations multihomed to the same two providers: the probe AS
  // must not send *every* tie to the same provider.
  AsGraph g;
  const Asn p1 = g.add_as(Tier::kTransit, Region::kEurope);
  const Asn p2 = g.add_as(Tier::kTransit, Region::kEurope);
  const Asn x = g.add_as(Tier::kTier1, Region::kEurope);
  g.add_link(x, p1, Relationship::kProviderCustomer, true, false, {});
  g.add_link(x, p2, Relationship::kProviderCustomer, true, false, {});
  int via_p1 = 0, via_p2 = 0;
  for (int i = 0; i < 40; ++i) {
    const Asn d = g.add_as(Tier::kStub, Region::kEurope);
    g.add_link(p1, d, Relationship::kProviderCustomer, true, false, {});
    g.add_link(p2, d, Relationship::kProviderCustomer, true, false, {});
    const RouteTable t = compute_routes_to(g, ip::Family::kIpv4, d);
    (t.as_path(x)[0] == p1 ? via_p1 : via_p2)++;
  }
  EXPECT_GT(via_p1, 5);
  EXPECT_GT(via_p2, 5);
}

TEST(RouteComputer, UnreachableDestination) {
  AsGraph g;
  const Asn a = g.add_as(Tier::kStub, Region::kEurope);
  const Asn b = g.add_as(Tier::kStub, Region::kEurope);
  (void)b;
  const RouteTable t = compute_routes_to(g, ip::Family::kIpv4, a);
  EXPECT_FALSE(t.reachable(b));
  EXPECT_TRUE(t.as_path(b).empty());
}

TEST(RouteComputer, RejectsOutOfRangeDest) {
  AsGraph g;
  g.add_as(Tier::kStub, Region::kEurope);
  EXPECT_THROW(compute_routes_to(g, ip::Family::kIpv4, 5), v6mon::ConfigError);
}

TEST(IsValleyFree, AcceptsAndRejects) {
  Fixture f;
  // Valid: s3's provider route.
  const RouteTable t = compute_routes_to(f.g, ip::Family::kIpv4, f.s1);
  EXPECT_TRUE(is_valley_free(f.g, ip::Family::kIpv4, f.s3, t.as_path(f.s3)));
  // Invalid: down then up (valley): t1a -> ta -> tb? ta-tb is peer;
  // t1a -> ta (down), ta -> tb (peer), tb -> t1a (up) — a loop-ish valley.
  EXPECT_FALSE(is_valley_free(f.g, ip::Family::kIpv4, f.t1a, {f.ta, f.tb, f.t1a}));
  // Invalid: two peer edges: ta -> tb (peer) then tb has no peer... use
  // t1a->t1b (peer) after ta->tb? Construct: s... simpler: path with
  // nonexistent adjacency is rejected.
  EXPECT_FALSE(is_valley_free(f.g, ip::Family::kIpv4, f.s1, {f.s2}));
  // Empty path trivially valley-free.
  EXPECT_TRUE(is_valley_free(f.g, ip::Family::kIpv4, f.s1, {}));
}

// Property test: every path computed on random topologies is valley-free
// and consistent (length matches, terminates at dest, no repeated AS).
class RandomTopologyPaths : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopologyPaths, AllPathsValid) {
  util::Rng rng(GetParam());
  topo::TopologyParams params;
  params.num_tier1 = 4;
  params.num_transit = 30;
  params.num_stub = 120;
  const AsGraph g = topo::generate_topology(params, rng);

  util::Rng pick(GetParam() + 1000);
  for (int trial = 0; trial < 12; ++trial) {
    const Asn dest = static_cast<Asn>(pick.index(g.num_ases()));
    for (const ip::Family family : {ip::Family::kIpv4, ip::Family::kIpv6}) {
      const RouteTable t = compute_routes_to(g, family, dest);
      for (Asn src = 0; src < g.num_ases(); ++src) {
        if (!t.reachable(src) || src == dest) continue;
        const auto path = t.as_path(src);
        ASSERT_EQ(path.size(), t.path_length(src));
        ASSERT_EQ(path.back(), dest);
        EXPECT_TRUE(is_valley_free(g, family, src, path))
            << "family=" << ip::family_name(family) << " src=" << src
            << " dest=" << dest;
        // No AS repeats (BGP loop prevention).
        std::vector<Asn> sorted = path;
        sorted.push_back(src);
        std::sort(sorted.begin(), sorted.end());
        EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
        // Every link on a v6 path carries v6 (family correctness).
        Asn prev = src;
        for (Asn cur : path) {
          bool ok = false;
          for (const topo::Adjacency& adj : g.adjacencies(prev)) {
            if (adj.neighbor == cur && g.link_in_family(adj.link_id, family)) ok = true;
          }
          EXPECT_TRUE(ok);
          prev = cur;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyPaths,
                         ::testing::Values(21, 22, 23, 24, 25));

/// Differential check of scoped convergence: for both families and every
/// destination, a table scoped to the provider closure of a random source
/// set must agree with the full table on class, length, next hop and
/// AS_PATH at every scope member; the closure of every AS must be the full
/// table itself.
void expect_scoped_matches_full(const AsGraph& g, std::uint64_t seed) {
  util::Rng pick(seed);
  std::vector<Asn> every(g.num_ases());
  for (Asn a = 0; a < g.num_ases(); ++a) every[a] = a;
  for (const ip::Family family : {ip::Family::kIpv4, ip::Family::kIpv6}) {
    const FamilyView view(g, family);
    std::vector<Asn> sources(1 + pick.index(4));
    for (Asn& s : sources) s = static_cast<Asn>(pick.index(g.num_ases()));
    const SourceScope scope = SourceScope::provider_closure(view, sources);
    const SourceScope whole = SourceScope::provider_closure(view, every);
    ASSERT_LT(scope.size(), g.num_ases()) << "a random scope should be partial";
    ASSERT_EQ(whole, SourceScope::all(g.num_ases()));
    for (const Asn s : sources) EXPECT_TRUE(scope.contains(s));
    for (std::size_t i = 0; i < scope.size(); ++i) {  // closed under providers
      if (i > 0) {
        ASSERT_LT(scope[i - 1], scope[i]);
      }
      for (const FamilyView::Edge* e = view.edges_begin(scope[i]);
           e != view.edges_end(scope[i]); ++e) {
        if (e->role == topo::Role::kProvider) {
          EXPECT_TRUE(scope.contains(e->neighbor));
        }
      }
    }

    for (Asn dest = 0; dest < g.num_ases(); ++dest) {
      const RouteTable full = compute_routes_to(view, dest);
      const RouteTable scoped = compute_routes_to(view, dest, scope);
      for (std::size_t i = 0; i < scope.size(); ++i) {
        const Asn src = scope[i];
        ASSERT_EQ(scoped.route_class(src), full.route_class(src))
            << ip::family_name(family) << " dest=" << dest << " src=" << src;
        ASSERT_EQ(scoped.path_length(src), full.path_length(src));
        ASSERT_EQ(scoped.next_hop(src), full.next_hop(src));
        ASSERT_EQ(scoped.as_path(src), full.as_path(src));
      }
      ASSERT_TRUE(compute_routes_to(view, dest, whole) == full)
          << ip::family_name(family) << " dest=" << dest;
    }
  }
}

TEST_P(RandomTopologyPaths, ScopedTablesMatchFull) {
  util::Rng rng(GetParam());
  topo::TopologyParams params;
  params.num_tier1 = 4;
  params.num_transit = 30;
  params.num_stub = 120;
  const AsGraph g = topo::generate_topology(params, rng);
  expect_scoped_matches_full(g, GetParam() + 2000);
}

// The same on a built world: VP uplink modes, the tunnel overlay, and
// AS pairs joined by more than one link (a tunnel over an existing
// adjacency, plus parallel peerings added here).
TEST(RouteComputer, ScopedTablesMatchFullOnWorldWithTunnels) {
  scenario::WorldSpec spec;
  spec.seed = 8;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 25;
  spec.topology.num_stub = 120;
  spec.catalog.initial_sites = 300;
  spec.catalog.num_rounds = 4;
  spec.vantage_points = {
      {.name = "A", .v6_mode = scenario::V6UplinkMode::kSubsetProviders},
      {.name = "B", .region = Region::kEurope,
       .v6_mode = scenario::V6UplinkMode::kSeparateProvider},
  };
  core::World world = scenario::build_world(spec);
  AsGraph& g = world.graph;
  std::size_t tunnels = 0;
  const auto links = static_cast<std::uint32_t>(g.num_links());
  for (std::uint32_t id = 0; id < links; ++id) {
    const topo::AsLink l = g.link(id);
    if (l.v6_tunnel) ++tunnels;
    // Every seventh provider link gets a parallel peering in both families.
    if (!l.v6_tunnel && l.rel == Relationship::kProviderCustomer && id % 7 == 0) {
      g.add_link(l.a, l.b, Relationship::kPeerPeer, true, true, {});
    }
  }
  ASSERT_GT(tunnels, 0u);
  std::size_t multi_link_pairs = 0;
  for (Asn u = 0; u < g.num_ases(); ++u) {
    std::vector<Asn> seen;
    for (const topo::Adjacency& adj : g.adjacencies(u)) seen.push_back(adj.neighbor);
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) ++multi_link_pairs;
  }
  ASSERT_GT(multi_link_pairs, 0u);
  expect_scoped_matches_full(g, 8);
}

#if V6MON_CONTRACT_LEVEL >= 1
TEST(RouteComputer, QueryOutsideScopeIsContractViolation) {
  Fixture f;
  const FamilyView view(f.g, ip::Family::kIpv4);
  const std::vector<Asn> sources{f.s1};
  const SourceScope scope = SourceScope::provider_closure(view, sources);
  EXPECT_EQ(scope.size(), 3u);  // s1, ta, t1a
  const RouteTable t = compute_routes_to(view, f.s3, scope);
  EXPECT_TRUE(t.reachable(f.s1));
  EXPECT_EQ(t.as_path(f.s1), (std::vector<Asn>{f.ta, f.t1a, f.t1b, f.tc, f.s3}));
  // tc lies on s1's path (stage 1 fixed its customer route) but is not in
  // the scope: the table has no answer *for* tc.
  EXPECT_THROW((void)t.reachable(f.tc), ContractError);
  EXPECT_THROW((void)t.path_length(f.s2), ContractError);
  EXPECT_THROW((void)t.next_hop(f.tb), ContractError);
  EXPECT_THROW((void)t.as_path(f.s3), ContractError);
}
#endif

// In IPv4 (fully connected underlay) every AS must reach every destination.
TEST(RouteComputer, V4UniversalReachabilityOnGenerated) {
  util::Rng rng(77);
  topo::TopologyParams params;
  params.num_tier1 = 4;
  params.num_transit = 25;
  params.num_stub = 100;
  const AsGraph g = topo::generate_topology(params, rng);
  util::Rng pick(78);
  for (int trial = 0; trial < 10; ++trial) {
    const Asn dest = static_cast<Asn>(pick.index(g.num_ases()));
    const RouteTable t = compute_routes_to(g, ip::Family::kIpv4, dest);
    for (Asn src = 0; src < g.num_ases(); ++src) {
      EXPECT_TRUE(t.reachable(src)) << "src=" << src << " dest=" << dest;
    }
  }
}

// The hoisted two-stage tie-break must equal util::hash_combine(dest,
// "bgp-tie", idx) bit-for-bit — route selection anywhere in the repo's
// history depends on these exact ranks, so a drift here silently reroutes
// every tied path. (route_computer.h documents this pin.)
TEST(RouteComputer, TieBreakSplitMatchesHashCombine) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t dest = rng.uniform_u64(0, 100000);
    const std::uint64_t idx = rng.uniform_u64(0, ~0ULL - 1);
    EXPECT_EQ(detail::tie_break_rank(detail::tie_break_prefix(dest), idx),
              util::hash_combine(dest, "bgp-tie", idx));
  }
}

// FamilyView must be exactly the family-filtered adjacency list, in the
// graph's own per-AS order — compute_routes_to's selection (including
// first-seen tie candidates) is only bit-identical if the edge sequence is.
TEST(RouteComputer, FamilyViewMatchesFilteredAdjacencies) {
  util::Rng rng(99);
  topo::TopologyParams params;
  params.num_tier1 = 3;
  params.num_transit = 20;
  params.num_stub = 60;
  const AsGraph g = topo::generate_topology(params, rng);
  for (ip::Family family : {ip::Family::kIpv4, ip::Family::kIpv6}) {
    const FamilyView view(g, family);
    ASSERT_EQ(view.num_ases(), g.num_ases());
    for (Asn u = 0; u < g.num_ases(); ++u) {
      const FamilyView::Edge* e = view.edges_begin(u);
      for (const topo::Adjacency& adj : g.adjacencies(u)) {
        if (!g.link_in_family(adj.link_id, family)) continue;
        ASSERT_NE(e, view.edges_end(u));
        EXPECT_EQ(e->neighbor, adj.neighbor);
        EXPECT_EQ(e->role, adj.role);
        ++e;
      }
      EXPECT_EQ(e, view.edges_end(u));
    }
  }
}

}  // namespace
}  // namespace v6mon::bgp
