#pragma once

#include <string>
#include <vector>

#include "core/world.h"
#include "topo/generator.h"
#include "web/catalog.h"

namespace v6mon::scenario {

/// How a vantage point's IPv6 connectivity relates to its IPv4 upstreams.
/// This is the per-VP lever behind the paper's Table 4 spread (Penn is
/// almost all DP; LU/UPCB mostly SP):
enum class V6UplinkMode {
  /// Every IPv4 provider link also carries IPv6 (full first-hop parity).
  kSameProviders,
  /// Only one of the IPv4 providers carries IPv6.
  kSubsetProviders,
  /// IPv6 rides a *different* dedicated provider (e.g. an academic IPv6
  /// network): first hops always diverge.
  kSeparateProvider,
};

/// Specification of one vantage point to attach to the generated graph.
struct VantageSpec {
  std::string name;
  core::VantagePoint::Type type = core::VantagePoint::Type::kAcademic;
  topo::Region region = topo::Region::kNorthAmerica;
  std::uint32_t start_round = 0;
  bool has_as_path = false;
  bool whitelisted = false;
  bool uses_dns_cache_supplement = false;
  int num_v4_providers = 2;
  V6UplinkMode v6_mode = V6UplinkMode::kSameProviders;
  /// For kSubsetProviders: which of the chosen providers (0 = best
  /// connected) carries IPv6; -1 = the last (weakest) choice. The weaker
  /// the IPv6-carrying upstream, the rarer first-hop agreement — i.e. the
  /// smaller the vantage point's SP share.
  int v6_provider_rank = -1;
  /// If >= 0, the last chosen provider is replaced by the candidate at
  /// this rank in the region's provider list — a deliberately *weak*
  /// upstream. Homing IPv6 on it (v6_provider_rank = -1) models an
  /// early-IPv6 academic/niche upstream that IPv4 best paths rarely use.
  int weak_provider_rank = -1;
};

/// Knobs of the evolving-world delta stream (core::WorldTimeline). The
/// generator (scenario/evolution.h) schedules epochs on the paper
/// calendar — every `epoch_interval` rounds plus the two Fig. 1
/// inflection points — and emits per-epoch deltas: AS dual-stack
/// enables with a prefix announcement and an uplink v6 enable, new v6
/// peerings between already-v6 ASes, tunnel retirements paired with a
/// native upgrade (post-depletion only), occasional renumbering
/// withdrawals, and AAAA grants to v4-only sites (bursty at the
/// inflections, matching Fig. 1's steps).
struct EvolutionSpec {
  /// Off by default: a disabled spec yields an empty timeline and the
  /// campaign runs the exact pre-epoch code path.
  bool enabled = false;
  /// Scales every per-epoch delta count (1.0 = default densities).
  double delta_rate = 1.0;
  /// Rounds between scheduled epochs; the calendar's inflection rounds
  /// are always added on top.
  std::uint32_t epoch_interval = 8;
  /// At most this fraction of all ASes may be named by one epoch's
  /// deltas: the per-epoch topology churn.
  double max_as_fraction = 0.01;
  /// IANA depletion inflection round (paper calendar: Feb 3, 2011).
  std::uint32_t depletion_round = 16;

  /// Domain checks; throws v6mon::ConfigError.
  void validate() const;
};

/// Everything needed to build a World.
struct WorldSpec {
  std::uint64_t seed = 2011;
  topo::TopologyParams topology;
  topo::AddressPlanParams addresses;
  web::CatalogParams catalog;
  std::vector<VantageSpec> vantage_points;

  /// IPv6-over-IPv4 tunnel overlay for v6 islands (6to4 / brokers).
  bool tunnels = true;
  double tunnel_extra_latency_ms = 15.0;
  double tunnel_bandwidth_factor = 0.85;
  std::size_t tunnel_relays = 4;

  /// Round of World IPv6 Day (catalog.w6d_round is kept in sync).
  std::uint32_t w6d_round = web::kNever;

  /// Evolving-world delta stream; disabled by default (frozen world).
  EvolutionSpec evolution;

  /// Worker threads for world construction (RIB convergence, tunnel relay
  /// tables); 0 = hardware concurrency. Output is bit-identical for every
  /// value — per-destination route tables are independent and merged in
  /// destination-ASN order, never completion order.
  std::size_t build_threads = 0;
};

/// Assemble a complete world:
///  1. generate the AS topology,
///  2. attach the vantage-point ASes per their uplink specs,
///  3. assign addresses,
///  4. generate the site catalog,
///  5. lay the tunnel overlay over v6 islands,
///  6. converge BGP and fill every vantage point's RIB.
[[nodiscard]] core::World build_world(const WorldSpec& spec);

/// Statistics of the tunnel overlay (exposed for tests and DESIGN docs).
struct TunnelStats {
  std::size_t islands = 0;
  std::size_t tunnels_added = 0;
};

/// Lay tunnels for IPv6-enabled ASes with no native IPv6 route to the
/// core: each island gets a virtual provider link to its best relay, with
/// metrics derived from the real underlying IPv4 path. Exposed separately
/// so tests and ablation benches can run with/without the overlay.
TunnelStats apply_tunnel_overlay(topo::AsGraph& graph, std::size_t num_relays,
                                 double extra_latency_ms, double bandwidth_factor,
                                 util::Rng& rng, std::size_t threads = 0);

/// Fill every vantage point's RIB by converging BGP toward every AS that
/// hosts content (exposed for custom scenarios): one core::sync_vp_routes
/// pass per family, on `threads` workers (0 = hardware). The resulting
/// RIBs are bit-identical across thread counts. Only relays with a live
/// tunnel are 2002::/16 candidates, so calling this on an advanced world
/// agrees with core::WorldTimeline.
void build_ribs(core::World& world, std::size_t threads = 0);

}  // namespace v6mon::scenario
