// Failure-injection coverage: DNS timeouts and download failures must
// degrade the campaign gracefully — counted, never crashing, never
// corrupting the kept-site analysis.

#include <gtest/gtest.h>

#include "analysis/report.h"
#include "core/campaign.h"
#include "scenario/world_builder.h"

namespace v6mon::core {
namespace {

scenario::WorldSpec tiny_spec() {
  scenario::WorldSpec spec;
  spec.seed = 31;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 25;
  spec.topology.num_stub = 120;
  spec.catalog.initial_sites = 2500;
  spec.catalog.churn_per_round = 0;
  spec.catalog.num_rounds = 8;
  spec.catalog.adoption = {0.5, 0.4, 0.3, 0.25, 0.2, 0.15};
  spec.vantage_points = {{.name = "VP",
                          .type = VantagePoint::Type::kAcademic,
                          .region = topo::Region::kNorthAmerica,
                          .start_round = 0,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSameProviders}};
  return spec;
}

const World& tiny_world() {
  static const World w = scenario::build_world(tiny_spec());
  return w;
}

TEST(FailureInjection, DnsTimeoutsProduceDnsFailures) {
  CampaignConfig cfg;
  cfg.seed = 5;
  cfg.threads = 2;
  // The fast path stays on: sites that lose both queries settle as
  // kDnsFailed in the round walk, and one-loss sites settle by the
  // monitor's query-order coin without running the monitor.
  cfg.monitor.dns.timeout_prob = 0.3;
  Campaign campaign(tiny_world(), cfg);
  campaign.run_round(0, 4);
  const RoundCounters& c = campaign.results(0).round_counters(4);
  // A v4-only site needs just its A query to time out to count as
  // kDnsFailed (the AAAA is NODATA anyway): expect roughly timeout_prob
  // of the (mostly v4-only) population.
  EXPECT_GT(c.dns_failed, c.listed / 8);
  EXPECT_LT(c.dns_failed, c.listed / 2);
  // Conservation: every listed site lands in exactly one bucket.
  EXPECT_EQ(c.listed, c.v4_only + c.v6_only + c.dual + c.dns_failed);
}

TEST(FailureInjection, DnsTimeoutCanMakeDualSiteLookV6Only) {
  CampaignConfig cfg;
  cfg.seed = 6;
  cfg.threads = 1;
  cfg.monitor.dns.timeout_prob = 0.4;
  Campaign campaign(tiny_world(), cfg);
  campaign.run_round(0, 4);
  // With A-lookups timing out sometimes, some dual-stack sites appear
  // v6-only that round.
  EXPECT_GT(campaign.results(0).round_counters(4).v6_only, 0u);
}

TEST(FailureInjection, DownloadFailuresAreCountedNotFatal) {
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.threads = 2;
  cfg.monitor.download.failure_prob = 0.35;
  Campaign campaign(tiny_world(), cfg);
  campaign.run_round(0, 4);
  const RoundCounters& c = campaign.results(0).round_counters(4);
  EXPECT_GT(c.download_failed, 0u);
  EXPECT_GT(c.measured, 0u);  // retries still land most sites
  EXPECT_EQ(c.listed, c.v4_only + c.v6_only + c.dual + c.dns_failed);
}

TEST(FailureInjection, TotalDownloadLossYieldsNoMeasurements) {
  CampaignConfig cfg;
  cfg.seed = 8;
  cfg.threads = 1;
  cfg.monitor.download.failure_prob = 1.0;
  Campaign campaign(tiny_world(), cfg);
  campaign.run_round(0, 4);
  const RoundCounters& c = campaign.results(0).round_counters(4);
  EXPECT_EQ(c.measured, 0u);
  EXPECT_GT(c.download_failed, 0u);
}

TEST(FailureInjection, AnalysisSurvivesLossyCampaign) {
  CampaignConfig cfg;
  cfg.seed = 9;
  cfg.threads = 2;
  cfg.monitor.dns.timeout_prob = 0.1;
  cfg.monitor.download.failure_prob = 0.1;
  Campaign campaign(tiny_world(), cfg);
  campaign.run();
  campaign.finalize();
  const auto report = analysis::analyze_vp("VP", campaign.results(0));
  EXPECT_FALSE(report.assessments.empty());
  // Lossy rounds mean fewer measured rounds per site, but kept sites must
  // still satisfy the minimum-rounds rule.
  for (const auto& a : report.assessments) {
    if (a.outcome == analysis::SiteOutcome::kKept) {
      EXPECT_GE(a.rounds_measured, 5u);
    }
  }
}

TEST(FailureInjection, ResolverFailuresDoNotBreakDeterminism) {
  CampaignConfig cfg;
  cfg.seed = 10;
  cfg.threads = 1;
  cfg.monitor.dns.timeout_prob = 0.2;
  Campaign a(tiny_world(), cfg), b(tiny_world(), cfg);
  a.run_round(0, 3);
  b.run_round(0, 3);
  const RoundCounters& ca = a.results(0).round_counters(3);
  const RoundCounters& cb = b.results(0).round_counters(3);
  EXPECT_EQ(ca.dns_failed, cb.dns_failed);
  EXPECT_EQ(ca.measured, cb.measured);
  EXPECT_EQ(ca.v6_only, cb.v6_only);
}

}  // namespace
}  // namespace v6mon::core
