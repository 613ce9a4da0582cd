// Walk the Fig. 2 monitoring pipeline for a handful of sites, verbosely:
// DNS A/AAAA, RIB lookups + AS paths, identity check, CI-driven repeat
// downloads — the micro-level view of the public API.
//
// Usage: monitor_single_site [seed] [num_sites]

#include "args.h"

#include <cstdio>

#include "core/monitor.h"
#include "scenario/world_builder.h"
#include "transport/path.h"

using namespace v6mon;

namespace {

scenario::WorldSpec demo_spec(std::uint64_t seed) {
  scenario::WorldSpec spec;
  spec.seed = seed;
  spec.topology.num_tier1 = 5;
  spec.topology.num_transit = 60;
  spec.topology.num_stub = 400;
  spec.catalog.initial_sites = 8000;
  spec.catalog.churn_per_round = 0;
  spec.catalog.num_rounds = 10;
  spec.catalog.adoption = {0.5, 0.4, 0.3, 0.25, 0.2, 0.18};  // adoption-rich demo
  spec.vantage_points = {{.name = "demo-vp",
                          .type = core::VantagePoint::Type::kAcademic,
                          .region = topo::Region::kEurope,
                          .start_round = 0,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSameProviders}};
  return spec;
}

const char* family_of(const web::Site& site, const core::World& world) {
  return world.graph.node(world.catalog.v6_presence(site).as).has_v6 ? "dual" : "v4";
}

}  // namespace

int main(int argc, char** argv) {
  using examples::number_arg;
  const std::uint64_t seed = argc > 1 ? number_arg<std::uint64_t>(argv[1], "seed") : 7;
  const unsigned num_sites = argc > 2 ? number_arg<unsigned>(argv[2], "num_sites") : 6;

  const core::World world = scenario::build_world(demo_spec(seed));
  const core::VantagePoint& vp = world.vantage_points[0];
  std::printf("world: %s\n", world.graph.summary().c_str());
  std::printf("vantage point '%s' = AS%u, RIB: %zu v4 / %zu v6 routes\n\n",
              vp.name.c_str(), vp.asn, vp.rib.v4_routes(), vp.rib.v6_routes());

  core::MonitorConfig config;  // paper constants
  core::Monitor monitor(world, vp, config);
  const std::uint32_t round = 5;
  unsigned shown = 0;
  for (const web::Site& site : world.catalog.sites()) {
    if (!world.catalog.dual_stack_at(site, round)) continue;
    if (shown++ >= num_sites) break;

    std::printf("--- www.s%u.v6mon.test (rank %u, %s, page %.1f kB) ---\n", site.id,
                world.catalog.rank(site), family_of(site, world), site.page_kb);

    // Phase 1: DNS. The catalog answers A, and AAAA while the site is
    // dual-stack (every site shown here is); the demo loses no query.
    const web::Hosting hosting = world.catalog.hosting_at(site, round);
    std::printf("  A    -> %s\n", hosting.v4_addr.to_string().c_str());
    std::printf("  AAAA -> %s\n", hosting.v6_addr.to_string().c_str());

    // The full pipeline answers the same queries the same way.
    const core::Observation obs =
        monitor.monitor_site(site, round, {}, util::Rng(seed ^ site.id));
    const core::PathRegistry& paths = monitor.routes();
    const core::RoutePair pair = paths.pair(obs.route_pair);
    const core::Route v4 = paths.route(pair.v4);
    const core::Route v6 = paths.route(pair.v6);
    std::printf("  status: %s\n", core::monitor_status_name(obs.status));
    if (v4.path != core::kNoPath) {
      std::printf("  v4 AS_PATH: %s\n", paths.to_string(v4.path).c_str());
    }
    if (v6.path != core::kNoPath) {
      std::printf("  v6 AS_PATH: %s\n", paths.to_string(v6.path).c_str());
    }
    if (obs.status == core::MonitorStatus::kMeasured) {
      std::printf("  v4: %.1f kB/s over %u downloads; v6: %.1f kB/s over %u\n",
                  obs.v4_speed_kBps, obs.v4_samples, obs.v6_speed_kBps,
                  obs.v6_samples);
      const bool sp = v4.path == v6.path;
      std::printf("  classification: %s\n",
                  v4.origin != v6.origin ? "DL (different locations)"
                  : sp                           ? "SL/SP (same AS path)"
                                                 : "SL/DP (different AS paths)");
    }
    std::printf("\n");
  }
  return 0;
}
