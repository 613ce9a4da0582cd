// What-if sweeps of the paper's two closing claims, each row a world knob
// re-run through the whole study:
//
// * The peering ladder: peering parity is "probably the single most
//   effective step towards equal IPv6 and IPv4 performance" (the
//   conclusion). Four IPv6 link-parity points, then full parity with a
//   dual-stack transit core, then with the VPs' own uplinks at parity.
// * The tunnel sweep: Table 7's low-hop-count IPv6 deficit is a tunnel
//   artifact (Section 5.2). No tunnels, then free, paper-era and awful
//   ones.
//
// EXPERIMENTS.md ("Ablations") reads the output at the defaults.
// Usage: whatif [seed] [scale]   (defaults 2011 and 0.25)
// Exit status: 0 on success, 2 on a bad argument, 1 on a library error.

#include "args.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/tables.h"
#include "core/campaign.h"
#include "scenario/paper.h"
#include "scenario/world_builder.h"
#include "util/error.h"
#include "util/table.h"

using namespace v6mon;
using util::TextTable;

namespace {

/// Runs `spec` through the study (world, campaign, finalize, analysis)
/// and returns `read(reports)`. The reports' views read the campaign's
/// stores, so they are read here, before the campaign goes away.
template <typename Read>
auto run_study(const scenario::WorldSpec& spec, Read read) {
  const core::World world = scenario::build_world(spec);
  core::Campaign campaign(world, scenario::paper_campaign_config(spec.seed));
  campaign.run();
  campaign.finalize();
  std::vector<core::ObservationView> views;
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    views.emplace_back(campaign.results(i));
  }
  return read(analysis::analyze_world(world, views));
}

struct ParityRow {
  double dp_share = 0.0;    ///< DP / (SP + DP) kept sites, summed over VPs.
  double dp_similar = 0.0;  ///< Similar-or-zero-mode share of DP dest ASes.
  double dp_speed = 0.0;    ///< v6/v4 speed over DP sites.
  double v6_deficit = 0.0;  ///< 1 - v6/v4 speed over SL (SP + DP) sites.
};

ParityRow parity_row(const std::vector<analysis::VpReport>& reports) {
  double sp = 0, dp = 0, similar = 0, ases = 0;
  double dp_log = 0, dp_n = 0, sl_log = 0, sl_n = 0;
  for (const auto& r : reports) {
    const auto counts = r.kept_counts();
    sp += static_cast<double>(counts.sp);
    dp += static_cast<double>(counts.dp);
    for (const auto& as : r.dp_ases) {
      if (as.category == analysis::AsCategory::kSimilar ||
          as.category == analysis::AsCategory::kZeroMode) {
        similar += 1.0;
      }
      ases += 1.0;
    }
    for (const auto& a : r.assessments) {
      if (a.outcome != analysis::SiteOutcome::kKept) continue;
      const auto category = analysis::category_of(a);
      if (!category || *category == analysis::Category::kDl) continue;
      if (a.v4_speed <= 0.0 || a.v6_speed <= 0.0) continue;
      // Geometric means: per-path quality is lognormal, so an arithmetic
      // mean of ratios would be Jensen-biased upward.
      const double log_ratio = std::log(a.v6_speed / a.v4_speed);
      sl_log += log_ratio;
      sl_n += 1.0;
      if (*category == analysis::Category::kDp) {
        dp_log += log_ratio;
        dp_n += 1.0;
      }
    }
  }
  ParityRow row;
  row.dp_share = sp + dp > 0 ? dp / (sp + dp) : 0.0;
  row.dp_similar = ases > 0 ? similar / ases : 0.0;
  row.dp_speed = dp_n > 0 ? std::exp(dp_log / dp_n) : 0.0;
  row.v6_deficit = sl_n > 0 ? 1.0 - std::exp(sl_log / sl_n) : 0.0;
  return row;
}

/// Site-weighted mean of Table 7 bucket speeds.
struct SpeedMean {
  double sum = 0.0;
  std::size_t sites = 0;

  void add(const analysis::HopBucket& b) {
    sum += b.mean_speed * static_cast<double>(b.sites);
    sites += b.sites;
  }
  [[nodiscard]] double mean() const {
    return sites > 0 ? sum / static_cast<double>(sites) : 0.0;
  }
};

/// Table 7 (DL + DP sites) folded over VPs into low (<= 2 apparent
/// hops) and high (>= 4 hops) speeds per family.
struct TunnelRow {
  SpeedMean v6_low, v4_low, v6_high, v4_high;
};

TunnelRow tunnel_row(const std::vector<analysis::VpReport>& reports) {
  TunnelRow row;
  for (const auto& r : analysis::table7_hopcount_dldp(reports)) {
    for (std::size_t b = 0; b < 2; ++b) {  // 1 and 2 hops
      row.v6_low.add(r.v6[b]);
      row.v4_low.add(r.v4[b]);
    }
    for (std::size_t b = 3; b < analysis::kHopBuckets; ++b) {  // >= 4 hops
      row.v6_high.add(r.v6[b]);
      row.v4_high.add(r.v4[b]);
    }
  }
  return row;
}

void peering_ladder(std::uint64_t seed, double scale) {
  TextTable t({"scenario", "p2p/c2p parity", "DP share of SL sites",
               "DP ASes similar or zero-mode", "DP v6/v4 speed",
               "mean IPv6 deficit (SL)"});
  struct Step {
    const char* name;
    double p2p, c2p;
    bool core_dual, vp_parity;
  };
  for (const Step& step : {Step{"sparse links", 0.30, 0.90, false, false},
                           Step{"2011 status quo", 0.55, 0.95, false, false},
                           Step{"denser links", 0.80, 0.98, false, false},
                           Step{"link parity only", 1.00, 1.00, false, false},
                           Step{"+ dual-stack core", 1.00, 1.00, true, false},
                           Step{"+ VP uplink parity", 1.00, 1.00, true, true}}) {
    scenario::WorldSpec spec = scenario::paper_spec(seed, scale);
    spec.topology.v6.p2p_parity = step.p2p;
    spec.topology.v6.c2p_parity = step.c2p;
    if (step.core_dual) {
      // Peering parity presumes the ASes at both ends run IPv6 at all:
      // upgrade the whole transit core.
      spec.topology.v6.tier1_adoption = 1.0;
      spec.topology.v6.transit_adoption = 1.0;
      spec.topology.v6.tier1_mesh_parity = 1.0;
    }
    if (step.vp_parity) {
      // The vantage points' own uplink disparity is a peering disparity too.
      for (auto& vp : spec.vantage_points) {
        vp.v6_mode = scenario::V6UplinkMode::kSameProviders;
      }
    }
    const ParityRow row = run_study(spec, parity_row);
    t.add_row({step.name, TextTable::num(step.p2p, 2) + "/" + TextTable::num(step.c2p, 2),
               TextTable::percent(row.dp_share), TextTable::percent(row.dp_similar),
               TextTable::num(row.dp_speed, 2), TextTable::percent(row.v6_deficit)});
  }
  std::printf("===== Peering-parity ladder =====\n%s\n", t.render().c_str());
}

void tunnel_sweep(std::uint64_t seed, double scale) {
  TextTable t({"tunnels", "v6 speed <=2 hops", "v4 speed <=2 hops",
               "v6 speed >=4 hops", "v4 speed >=4 hops", "# v6 low-hop sites"});
  struct Overlay {
    const char* name;
    bool tunnels;
    double extra_ms, bw_factor;
  };
  for (const Overlay& o : {Overlay{"none (islands unreachable)", false, 0.0, 1.0},
                           Overlay{"free tunnels", true, 0.0, 1.0},
                           Overlay{"paper-era tunnels", true, 35.0, 0.65},
                           Overlay{"awful tunnels", true, 120.0, 0.4}}) {
    scenario::WorldSpec spec = scenario::paper_spec(seed, scale);
    spec.tunnels = o.tunnels;
    spec.tunnel_extra_latency_ms = o.extra_ms;
    spec.tunnel_bandwidth_factor = o.bw_factor;
    const TunnelRow row = run_study(spec, tunnel_row);
    t.add_row({o.name, TextTable::num(row.v6_low.mean(), 1),
               TextTable::num(row.v4_low.mean(), 1),
               TextTable::num(row.v6_high.mean(), 1),
               TextTable::num(row.v4_high.mean(), 1),
               TextTable::count(row.v6_low.sites)});
  }
  std::printf("===== Tunnel sweep (Table 7's low-hop artifact) =====\n%s",
              t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  const std::uint64_t seed =
      argc > 1 ? examples::number_arg<std::uint64_t>(argv[1], "seed") : 2011;
  const double scale = argc > 2 ? examples::scale_arg(argv[2]) : 0.25;
  std::printf("v6mon what-if: seed=%llu scale=%.2f\n\n",
              static_cast<unsigned long long>(seed), scale);
  peering_ladder(seed, scale);
  tunnel_sweep(seed, scale);
  return 0;
} catch (const Error& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
