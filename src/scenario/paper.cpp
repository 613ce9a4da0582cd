#include "scenario/paper.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.h"

namespace v6mon::scenario {

std::vector<std::uint32_t> PaperCalendar::epoch_rounds(std::uint32_t interval) const {
  if (interval == 0 || interval > num_rounds) {
    throw ConfigError("epoch interval out of range");
  }
  std::vector<std::uint32_t> rounds;
  for (std::uint32_t r = interval; r <= num_rounds; r += interval) rounds.push_back(r);
  for (std::uint32_t r : {iana_depletion_round, w6d_round}) {
    if (r > 0 && r <= num_rounds) rounds.push_back(r);
  }
  std::sort(rounds.begin(), rounds.end());
  rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());
  return rounds;
}

void validate_paper_scale(double scale) {
  if (scale > 0.0 && scale <= kMaxPaperScale) return;
  std::ostringstream msg;
  msg << "paper scale " << scale << " outside (0, " << kMaxPaperScale
      << "]: larger worlds have more ASes than the 4096 /16s of the "
         "16.0.0.0/4 IPv4 address pool";
  throw ConfigError(msg.str());
}

WorldSpec paper_spec(std::uint64_t seed, double scale) {
  validate_paper_scale(scale);
  const PaperCalendar cal;

  WorldSpec spec;
  spec.seed = seed;
  spec.w6d_round = cal.w6d_round;

  auto scaled = [scale](double v, double min_v) {
    return static_cast<std::size_t>(std::max(min_v, v * scale));
  };

  // --- Topology ----------------------------------------------------------
  spec.topology.num_tier1 = 10;
  spec.topology.num_transit = scaled(240, 40);
  spec.topology.num_stub = scaled(2750, 300);
  // Rich hub peering: the 2011 Internet was already flat, with most web
  // paths at 2-3 AS hops. Losing one of these IX shortcuts in IPv6 forces
  // a long tier-1 detour — the structural mechanism behind H2.
  spec.topology.transit_peering_same_region = 0.25;
  spec.topology.transit_peering_cross_region = 0.08;
  spec.topology.stub_transit_peering = 0.03;
  // Shallow hierarchy: transits hang off tier-1s rather than each other,
  // so a missing IPv6 peering forces the detour *up* through tier-1
  // transit instead of sideways.
  spec.topology.transit_prefers_tier1 = 0.85;
  spec.topology.peer_latency_factor = 0.25;
  spec.topology.latency_cross_region_hi = 180.0;

  // 2011-era tunnels: broker/6to4 relays added real latency and lost
  // effective bandwidth to encapsulation and undersized relays.
  spec.tunnel_extra_latency_ms = 35.0;
  spec.tunnel_bandwidth_factor = 0.65;
  // The paper-era IPv6: partially adopted, markedly worse peering parity.
  spec.topology.v6.tier1_adoption = 0.90;
  spec.topology.v6.transit_adoption = 0.45;
  spec.topology.v6.stub_adoption = 0.22;
  spec.topology.v6.c2p_parity = 0.98;
  spec.topology.v6.p2p_parity = 0.78;
  spec.topology.v6.tier1_mesh_parity = 0.98;
  spec.topology.v6.v6_only_peering_same_region = 0.10;
  spec.topology.v6.v6_only_peering_cross_region = 0.03;

  // --- Catalog -------------------------------------------------------------
  spec.catalog.initial_sites = scaled(200'000, 20'000);
  spec.catalog.churn_per_round = scaled(2'000, 200);
  spec.catalog.num_rounds = cal.num_rounds;
  spec.catalog.dns_cache_sites = scaled(50'000, 5'000);

  // Fig. 1's shape: ~0.25% reachable at the window start, jumps at the
  // IANA depletion announcement and at World IPv6 Day, ending >1%.
  std::vector<double>& w = spec.catalog.round_weights;
  w.assign(cal.num_rounds + 1, 0.0);
  w[0] = 20.0;  // adopted before the window
  for (std::uint32_t r = 1; r < cal.iana_depletion_round; ++r) w[r] = 0.7;
  w[cal.iana_depletion_round] = 8.0;
  for (std::uint32_t r = cal.iana_depletion_round + 1; r < cal.w6d_round; ++r) {
    w[r] = 0.8;
  }
  w[cal.w6d_round] = 25.0;
  for (std::uint32_t r = cal.w6d_round + 1; r <= cal.num_rounds; ++r) w[r] = 1.0;

  // --- Vantage points (paper Table 1) --------------------------------------
  using Type = core::VantagePoint::Type;
  using Region = topo::Region;
  // Start rounds approximate the Table 1 dates on the round calendar.
  spec.vantage_points = {
      // Penn monitored since 7/22/09 — active from round 0; its IPv6 rode
      // a separate academic upstream, so its IPv6 paths nearly always
      // diverge (the Table 4 Penn row: DP >> SP).
      {.name = "Penn",
       .type = Type::kAcademic,
       .region = Region::kNorthAmerica,
       .start_round = 0,
       .has_as_path = true,
       .whitelisted = false,
       .uses_dns_cache_supplement = true,
       .num_v4_providers = 3,
       .v6_mode = V6UplinkMode::kSubsetProviders,
       .v6_provider_rank = -1,
       .weak_provider_rank = 8},
      // Comcast (Denver), 2/4/11: multi-homed, IPv6 on the main upstream
      // only — IPv4 traffic engineering spreads across all three.
      {.name = "Comcast",
       .type = Type::kCommercial,
       .region = Region::kNorthAmerica,
       .start_round = 17,
       .has_as_path = true,
       .whitelisted = false,
       .uses_dns_cache_supplement = false,
       .num_v4_providers = 3,
       .v6_mode = V6UplinkMode::kSubsetProviders,
       .v6_provider_rank = 0},
      // UPC Broadband (NL), 2/28/11, Google-whitelisted, good parity.
      {.name = "UPCB",
       .type = Type::kCommercial,
       .region = Region::kEurope,
       .start_round = 19,
       .has_as_path = true,
       .whitelisted = true,
       .uses_dns_cache_supplement = false,
       .num_v4_providers = 1,
       .v6_mode = V6UplinkMode::kSameProviders},
      // Tsinghua (CN), 3/22/11 — no AS_PATH feed.
      {.name = "Tsinghua",
       .type = Type::kAcademic,
       .region = Region::kAsia,
       .start_round = 21,
       .has_as_path = false,
       .whitelisted = false,
       .uses_dns_cache_supplement = false,
       .num_v4_providers = 1,
       .v6_mode = V6UplinkMode::kSameProviders},
      // Loughborough U. (GB), 4/29/11: dual-stack provider, good parity.
      {.name = "LU",
       .type = Type::kAcademic,
       .region = Region::kEurope,
       .start_round = 25,
       .has_as_path = true,
       .whitelisted = false,
       .uses_dns_cache_supplement = false,
       .num_v4_providers = 2,
       .v6_mode = V6UplinkMode::kSameProviders},
      // Go6 (Slovenia), 5/19/11 — no AS_PATH feed.
      {.name = "Go6",
       .type = Type::kCommercial,
       .region = Region::kEurope,
       .start_round = 27,
       .has_as_path = false,
       .whitelisted = false,
       .uses_dns_cache_supplement = false,
       .num_v4_providers = 1,
       .v6_mode = V6UplinkMode::kSameProviders},
  };

  return spec;
}

core::World build_paper_world(std::uint64_t seed, double scale) {
  return build_world(paper_spec(seed, scale));
}

core::CampaignConfig paper_campaign_config(std::uint64_t seed) {
  core::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.monitor.identity_threshold = 0.06;
  cfg.monitor.ci_rel = 0.10;
  cfg.monitor.confidence = 0.95;
  return cfg;
}

PaperVps paper_vp_indices(const core::World& world) {
  PaperVps out;
  bool found = false;
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    const std::string& n = world.vantage_points[i].name;
    if (n == "Penn") out.penn = i, found = true;
    else if (n == "Comcast") out.comcast = i;
    else if (n == "LU") out.lu = i;
    else if (n == "UPCB") out.upcb = i;
  }
  if (!found) throw ConfigError("world does not carry the paper vantage points");
  return out;
}

}  // namespace v6mon::scenario
