// Quickstart: build a (small) paper world, run the monitoring campaign,
// and print the headline H1/H2 evidence.
//
// Usage: quickstart [seed] [scale]
//   seed  - world/campaign seed (default 2011)
//   scale - world scale factor, 0.05 .. 1.0 (default 0.15 for a fast run)
//
// Exit status: 0 on success, 2 on a bad argument, 1 on a library error.

#include "args.h"

#include <cstdio>

#include "analysis/tables.h"
#include "core/campaign.h"
#include "scenario/paper.h"
#include "util/error.h"

using namespace v6mon;

int main(int argc, char** argv) try {
  const std::uint64_t seed =
      argc > 1 ? examples::number_arg<std::uint64_t>(argv[1], "seed") : 2011;
  const double scale = argc > 2 ? examples::scale_arg(argv[2]) : 0.15;

  std::printf("v6mon quickstart: seed=%llu scale=%.2f\n",
              static_cast<unsigned long long>(seed), scale);

  std::printf("[1/4] building world (topology, addresses, catalog, tunnels, BGP)...\n");
  const core::World world = scenario::build_paper_world(seed, scale);
  std::printf("      %s\n", world.graph.summary().c_str());
  std::printf("      %zu sites in catalog, %u rounds, W6D at round %u\n",
              world.catalog.size(), world.num_rounds, world.w6d_round);

  std::printf("[2/4] running the monitoring campaign from %zu vantage points...\n",
              world.vantage_points.size());
  core::Campaign campaign(world, scenario::paper_campaign_config(seed));
  campaign.run();
  campaign.run_w6d();
  campaign.finalize();

  std::printf("[3/4] analyzing (sanitization -> DL/SP/DP -> AS-level)...\n");
  std::vector<core::ObservationView> views;
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    views.emplace_back(campaign.results(i));
  }
  const auto reports = analysis::analyze_world(world, views);

  std::printf("[4/4] results\n\n");
  std::printf("Site classification (paper Table 4):\n%s\n",
              analysis::table4_render(analysis::table4_classification(reports))
                  .render()
                  .c_str());
  std::printf("SP destination ASes - H1 evidence (paper Table 8):\n%s\n",
              analysis::table8_render(analysis::table8_sp(reports)).render().c_str());
  std::printf("DP destination ASes - H2 evidence (paper Table 11):\n%s\n",
              analysis::table11_render(analysis::table11_dp(reports)).render().c_str());

  // Headline verdicts.
  const auto sp = analysis::table8_sp(reports);
  const auto dp = analysis::table11_dp(reports);
  double sp_similar = 0.0, dp_similar = 0.0, sp_n = 0.0, dp_n = 0.0;
  for (const auto& c : sp) {
    sp_similar += static_cast<double>(c.shares.similar + c.shares.zero_mode);
    sp_n += static_cast<double>(c.shares.total);
  }
  for (const auto& c : dp) {
    dp_similar += static_cast<double>(c.shares.similar + c.shares.zero_mode);
    dp_n += static_cast<double>(c.shares.total);
  }
  sp_similar = sp_n > 0 ? sp_similar / sp_n : 0.0;
  dp_similar = dp_n > 0 ? dp_similar / dp_n : 0.0;
  std::printf("H1 (data-plane parity on same paths):  %.0f%% of SP ASes similar -> %s\n",
              100.0 * sp_similar, sp_similar > 0.6 ? "SUPPORTED" : "NOT SUPPORTED");
  std::printf("H2 (routing causes poorer IPv6 perf):  %.0f%% of DP ASes similar -> %s\n",
              100.0 * dp_similar,
              dp_similar < 0.5 * sp_similar ? "SUPPORTED" : "NOT SUPPORTED");
  return 0;
} catch (const Error& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
