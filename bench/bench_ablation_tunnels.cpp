// Ablation: tunnel prevalence and overhead. Tunnels are the paper's
// explanation for Table 7's low-hop-count IPv6 deficit: tunnelled paths
// *appear* short but hide their real underlay. Removing the tunnel
// overlay (or making tunnels free) should erase that artifact.

#include "common.h"

#include <string>
#include <vector>

#include "analysis/tables.h"
#include "core/campaign.h"
#include "scenario/paper.h"
#include "scenario/world_builder.h"

namespace {

using namespace v6mon;

struct TunnelPoint {
  std::string label;
  double v6_low_hop = 0.0;   // mean v6 speed at <=2 apparent hops (DL+DP)
  double v4_low_hop = 0.0;   // mean v4 speed at <=2 hops
  double v6_high_hop = 0.0;  // mean v6 speed at >=4 hops
  double v4_high_hop = 0.0;
  std::size_t v6_low_sites = 0;
};

TunnelPoint run_point(const std::string& label, bool tunnels, double extra_ms,
                      double bw_factor, std::uint64_t seed, double scale) {
  scenario::WorldSpec spec = scenario::paper_spec(seed, scale);
  spec.tunnels = tunnels;
  spec.tunnel_extra_latency_ms = extra_ms;
  spec.tunnel_bandwidth_factor = bw_factor;
  const core::World world = scenario::build_world(spec);
  core::Campaign campaign(world, scenario::paper_campaign_config(seed));
  campaign.run();
  campaign.finalize();
  std::vector<core::ObservationView> views;
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    views.emplace_back(campaign.results(i));
  }
  const auto reports = analysis::analyze_world(world, views);
  const auto rows = analysis::table7_hopcount_dldp(reports);

  TunnelPoint pt;
  pt.label = label;
  double v6l = 0, v6l_n = 0, v4l = 0, v4l_n = 0, v6h = 0, v6h_n = 0, v4h = 0,
         v4h_n = 0;
  for (const auto& r : rows) {
    for (std::size_t b = 0; b < 2; ++b) {  // 1 and 2 hops
      v6l += r.v6[b].mean_speed * static_cast<double>(r.v6[b].sites);
      v6l_n += static_cast<double>(r.v6[b].sites);
      v4l += r.v4[b].mean_speed * static_cast<double>(r.v4[b].sites);
      v4l_n += static_cast<double>(r.v4[b].sites);
    }
    for (std::size_t b = 3; b < analysis::kHopBuckets; ++b) {  // >=4 hops
      v6h += r.v6[b].mean_speed * static_cast<double>(r.v6[b].sites);
      v6h_n += static_cast<double>(r.v6[b].sites);
      v4h += r.v4[b].mean_speed * static_cast<double>(r.v4[b].sites);
      v4h_n += static_cast<double>(r.v4[b].sites);
    }
  }
  pt.v6_low_hop = v6l_n > 0 ? v6l / v6l_n : 0.0;
  pt.v4_low_hop = v4l_n > 0 ? v4l / v4l_n : 0.0;
  pt.v6_high_hop = v6h_n > 0 ? v6h / v6h_n : 0.0;
  pt.v4_high_hop = v4h_n > 0 ? v4h / v4h_n : 0.0;
  pt.v6_low_sites = static_cast<std::size_t>(v6l_n);
  return pt;
}

void emit() {
  const double scale = bench::scale_from_env(0.3);
  util::TextTable t({"tunnels", "v6 speed <=2 hops", "v4 speed <=2 hops",
                     "v6 speed >=4 hops", "v4 speed >=4 hops", "# v6 low-hop sites"});
  for (const auto& pt :
       {run_point("none (islands unreachable)", false, 0.0, 1.0, 2011, scale),
        run_point("free tunnels", true, 0.0, 1.0, 2011, scale),
        run_point("paper-era tunnels", true, 35.0, 0.65, 2011, scale),
        run_point("awful tunnels", true, 120.0, 0.4, 2011, scale)}) {
    t.add_row({pt.label, util::TextTable::num(pt.v6_low_hop, 1),
               util::TextTable::num(pt.v4_low_hop, 1),
               util::TextTable::num(pt.v6_high_hop, 1),
               util::TextTable::num(pt.v4_high_hop, 1),
               util::TextTable::count(pt.v6_low_sites)});
  }
  bench::print_result(
      "Ablation - tunnel prevalence/overhead vs the Table 7 artifact",
      t,
      "  Prediction from Section 5.2: the low-hop-count IPv6 deficit in\n"
      "  Table 7 is a tunnel artifact (apparent hop counts understate the\n"
      "  real path). Worse tunnels deepen the low-hop deficit; removing\n"
      "  the overlay removes those sites (islands become unreachable).",
      "ablation_tunnels.csv");
}

void BM_TunnelPoint(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_point("bench", true, 35.0, 0.65, 2011, 0.1));
  }
}
BENCHMARK(BM_TunnelPoint)->Unit(benchmark::kMillisecond);

}  // namespace

V6MON_BENCH_MAIN(emit)
