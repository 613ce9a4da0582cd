// Observability layer: the obs::MetricsRegistry contract (inert when
// disabled, lock-free sharded recording, deterministic merged counters),
// the stage tracing spans, the monitor-config domain validation, and the
// streaming-writer failure surfacing. The campaign-level matrix at the
// bottom is the PR's determinism acceptance test: counter exports must
// be byte-identical across thread counts and sink backends, and turning
// metrics on must not perturb a single observation byte.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "bgp/route_computer.h"
#include "core/campaign.h"
#include "core/monitor.h"
#include "core/world_timeline.h"
#include "scenario/evolution.h"
#include "scenario/world_builder.h"
#include "util/error.h"

namespace v6mon {
namespace {

/// A streambuf that refuses every byte — the portable stand-in for a
/// full disk. Any ostream writing through it enters the fail state.
class FailingStreambuf : public std::streambuf {
 protected:
  int overflow(int) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

// ---------------------------------------------------------------------------
// Registry unit tests (local registries; the global one stays untouched).
// ---------------------------------------------------------------------------

TEST(Metrics, DisabledRegistryRecordsNothing) {
  obs::MetricsRegistry reg;
  ASSERT_FALSE(reg.enabled());  // disabled is the default
  const obs::MetricId c = reg.counter("test.counter");
  reg.add(c, 5);
  reg.record_span(obs::Stage::kAnalysis, 1000);
  EXPECT_EQ(reg.counter_value("test.counter"), 0u);
  EXPECT_EQ(reg.stage_totals(obs::Stage::kAnalysis).calls, 0u);
  EXPECT_EQ(reg.shard_count(), 0u);  // the hot path never touched a shard
}

TEST(Metrics, CounterRegistrationIsIdempotentByName) {
  obs::MetricsRegistry reg;
  const obs::MetricId a = reg.counter("same.name");
  const obs::MetricId b = reg.counter("same.name");
  const obs::MetricId c = reg.counter("other.name");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Metrics, CounterCapacityExhaustionThrows) {
  obs::MetricsRegistry reg;
  for (std::size_t i = 0;; ++i) {
    ASSERT_LT(i, obs::MetricsRegistry::kMaxCounters);
    try {
      (void)reg.counter("cap." + std::to_string(i));
    } catch (const ConfigError&) {
      return;  // hit the documented fixed capacity
    }
  }
}

TEST(Metrics, ThreadedCountsMergeExactly) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::MetricId c = reg.counter("t.count");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) reg.add(c);
    });
  }
  for (std::thread& w : workers) w.join();
  // Sums of per-shard cells are independent of shard count and merge
  // order: the total is exact, not approximate.
  EXPECT_EQ(reg.counter_value("t.count"), kThreads * kPerThread);
  EXPECT_GE(reg.shard_count(), 1u);
}

TEST(Metrics, OneShardPerThreadAfterShardCacheEviction) {
  constexpr std::size_t kRegistries = 20;  // more than the shard cache holds
  constexpr std::uint64_t kPasses = 5;
  std::deque<obs::MetricsRegistry> regs(kRegistries);
  std::vector<obs::MetricId> ids;
  for (obs::MetricsRegistry& reg : regs) {
    reg.set_enabled(true);
    ids.push_back(reg.counter("t.count"));
  }
  for (std::uint64_t pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < kRegistries; ++i) regs[i].add(ids[i]);
  }
  for (std::size_t i = 0; i < kRegistries; ++i) {
    EXPECT_EQ(regs[i].shard_count(), 1u) << "registry " << i;
    EXPECT_EQ(regs[i].counter_value("t.count"), kPasses) << "registry " << i;
  }
}

TEST(Metrics, HistogramBinsAccessorExposesMergedCounts) {
  // histogram_bins() is the determinism-matrix hook for simulated-value
  // histograms (conn.handshake_seconds): per-bin counts, merged across
  // shards, with an empty vector for a name never registered.
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  EXPECT_TRUE(reg.histogram_bins("no.such.histogram").empty());
  const obs::MetricId h = reg.histogram("t.hist");
  reg.observe(h, 0.001);
  reg.observe(h, 0.001);
  reg.observe(h, 10.0);
  const std::vector<std::uint64_t> bins = reg.histogram_bins("t.hist");
  ASSERT_FALSE(bins.empty());
  std::uint64_t total = 0, nonzero = 0;
  for (const std::uint64_t b : bins) {
    total += b;
    if (b != 0) ++nonzero;
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(nonzero, 2u);  // the two samples land in distinct bins
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::MetricId c = reg.counter("r.count");
  reg.add(c, 7);
  reg.set_gauge("r.gauge", 3.0);
  ASSERT_EQ(reg.counter_value("r.count"), 7u);
  reg.reset();
  EXPECT_EQ(reg.counter_value("r.count"), 0u);
  EXPECT_EQ(reg.counter("r.count"), c);  // same id after reset
}

TEST(Metrics, StageSpanRecords) {
  // TraceSpan records into the *global* registry; use it directly but
  // restore its state so later campaign tests start clean.
  auto& reg = obs::metrics();
  reg.reset();
  reg.set_enabled(true);
  { const obs::TraceSpan span(obs::Stage::kAnalysis); }
  { const obs::TraceSpan span(obs::Stage::kAnalysis); }
  const auto totals = reg.stage_totals(obs::Stage::kAnalysis);
  EXPECT_EQ(totals.calls, 2u);
  reg.set_enabled(false);
  reg.reset();
}

TEST(Metrics, CountersJsonIsSortedAndCoversAllStages) {
  obs::MetricsRegistry reg;
  const std::string json = reg.counters_json();
  // Every pre-registered counter and every stage call-count appears even
  // when zero — a stable key set is what makes exports diffable.
  std::size_t prev_pos = 0;
  for (const char* key :
       {"campaign.fast_path_coin_sites", "campaign.sites_monitored",
        "dns.queries", "ingest.flushes", "monitor.ci_exhausted",
        "monitor.resolved_rows", "monitor.resolved_slots", "monitor.rows_invalidated",
        "stage.analysis.calls", "stage.catalog_build.calls",
        "stage.dns_resolve.calls", "stage.epoch_advance.calls", "stage.identity_fetch.calls", "stage.ingest_flush.calls",
        "stage.repeat_downloads.calls", "stage.rib_build.calls",
        "stage.site_resolve.calls", "stage.work_list.calls"}) {
    const std::size_t pos = json.find(std::string("\"") + key + "\"");
    ASSERT_NE(pos, std::string::npos) << key;
    EXPECT_GT(pos, prev_pos) << key << " breaks sorted order";
    prev_pos = pos;
  }
}

TEST(Metrics, ManifestLeadsTheExport) {
  obs::MetricsRegistry reg;
  const obs::ExportManifest manifest = {
      {"seed", "2011"}, {"config", "null"}, {"path", obs::json_quote("a\"b\\c\td")}};
  const std::string json = reg.to_json(manifest);
  EXPECT_EQ(json.rfind("{\n  \"manifest\": {\n    \"seed\": 2011,\n    \"config\": null,\n"
                       "    \"path\": \"a\\\"b\\\\c\\u0009d\"\n  },\n  \"counters\": {",
                       0),
            0u)
      << json.substr(0, 120);
  // Without a manifest the layout is unchanged.
  EXPECT_EQ(reg.to_json().rfind("{\n  \"counters\": {", 0), 0u);
  EXPECT_EQ(reg.to_json(manifest).substr(json.find("  \"counters\"")),
            reg.to_json().substr(2));
}

TEST(Metrics, WriteJsonSurfacesFailedStream) {
  obs::MetricsRegistry reg;
  FailingStreambuf buf;
  std::ostream out(&buf);
  EXPECT_THROW(reg.write_json(out), IoError);
}

TEST(Metrics, SummaryRendersStagesAndCounters) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(reg.counter("s.count"), 3);
  const std::string s = reg.summary();
  EXPECT_NE(s.find("dns_resolve"), std::string::npos);
  EXPECT_NE(s.find("rib_build"), std::string::npos);
  EXPECT_NE(s.find("catalog_build"), std::string::npos);
  EXPECT_NE(s.find("epoch_advance"), std::string::npos);
  EXPECT_NE(s.find("s.count"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Monitor-config domain validation (the uint16_t narrowing satellite).
// ---------------------------------------------------------------------------

TEST(MonitorConfigValidate, RejectsBudgetWiderThanSampleCounters) {
  core::MonitorConfig cfg;
  cfg.max_downloads = 65535;
  EXPECT_NO_THROW(cfg.validate());
  // 65536 would wrap Observation::v4_samples (uint16_t) to 0.
  cfg.max_downloads = 65536;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(MonitorConfigValidate, RejectsOutOfDomainConstants) {
  const core::MonitorConfig good;
  EXPECT_NO_THROW(good.validate());
  auto expect_bad = [](auto&& mutate) {
    core::MonitorConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), ConfigError);
  };
  expect_bad([](core::MonitorConfig& c) { c.min_downloads = 1; });
  expect_bad([](core::MonitorConfig& c) { c.max_downloads = c.min_downloads - 1; });
  expect_bad([](core::MonitorConfig& c) { c.confidence = 1.0; });
  expect_bad([](core::MonitorConfig& c) { c.confidence = 0.0; });
  expect_bad([](core::MonitorConfig& c) { c.ci_rel = 0.0; });
  expect_bad([](core::MonitorConfig& c) { c.ci_rel = std::nan(""); });
  expect_bad([](core::MonitorConfig& c) { c.identity_threshold = -0.1; });
  expect_bad([](core::MonitorConfig& c) { c.fetch_retries = 0; });
  // Failure-injection and conn-layer domains (ISSUE 9): out-of-range
  // probabilities and negative physical quantities must die here, not
  // deep inside the download/connection models.
  expect_bad([](core::MonitorConfig& c) { c.dns.timeout_prob = 1.5; });
  expect_bad([](core::MonitorConfig& c) { c.dns.timeout_prob = -0.1; });
  expect_bad([](core::MonitorConfig& c) { c.download.failure_prob = 2.0; });
  expect_bad([](core::MonitorConfig& c) { c.download.failure_prob = -1.0; });
  expect_bad([](core::MonitorConfig& c) { c.download.noise_sigma = -0.2; });
  expect_bad([](core::MonitorConfig& c) { c.download.setup_rtts = -1.0; });
  expect_bad([](core::MonitorConfig& c) { c.download.window_kB = 0.0; });
  expect_bad([](core::MonitorConfig& c) { c.download.fixed_overhead_s = -0.5; });
  expect_bad([](core::MonitorConfig& c) { c.path_quality_sigma = -0.1; });
  expect_bad([](core::MonitorConfig& c) { c.conn.timeout_s = 0.0; });
  expect_bad([](core::MonitorConfig& c) { c.conn.reset_prob = 1.5; });
  expect_bad([](core::MonitorConfig& c) { c.conn.backoff_mult = 0.0; });
  expect_bad([](core::MonitorConfig& c) { c.conn.backoff_base_s = -0.1; });
  expect_bad([](core::MonitorConfig& c) { c.conn.race_headstart_s = -1.0; });
  expect_bad([](core::MonitorConfig& c) { c.conn.max_retries = 1000; });
}

// ---------------------------------------------------------------------------
// Streaming-writer failure surfacing (ResultsDb::write_csv).
// ---------------------------------------------------------------------------

TEST(ResultsCsv, WriteCsvSurfacesFailedStream) {
  core::ResultsDb db;  // header row alone is enough to hit the buf
  db.finalize();
  FailingStreambuf buf;
  std::ostream out(&buf);
  EXPECT_THROW(db.write_csv(out), IoError);
}

TEST(ResultsCsv, WriteCsvToHealthyStreamStillWorks) {
  core::ResultsDb db;
  db.finalize();
  std::ostringstream out;
  EXPECT_NO_THROW(db.write_csv(out));
  EXPECT_NE(out.str().find("site,round,status"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaign-level determinism matrix.
// ---------------------------------------------------------------------------

scenario::WorldSpec small_spec() {
  scenario::WorldSpec spec;
  spec.seed = 4211;
  spec.topology.num_tier1 = 3;
  spec.topology.num_transit = 15;
  spec.topology.num_stub = 80;
  spec.catalog.initial_sites = 1200;
  spec.catalog.churn_per_round = 8;
  spec.catalog.num_rounds = 5;
  spec.catalog.adoption = {0.5, 0.4, 0.3, 0.25, 0.2, 0.15};
  spec.w6d_round = 3;
  spec.vantage_points = {{.name = "VP",
                          .type = core::VantagePoint::Type::kAcademic,
                          .region = topo::Region::kNorthAmerica,
                          .start_round = 0,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSameProviders}};
  return spec;
}

const core::World& small_world() {
  static const core::World w = scenario::build_world(small_spec());
  return w;
}

/// A spool directory private to the running test: ctest runs each test
/// as its own process, and two tests sharing one directory would
/// truncate each other's spool files mid-campaign.
std::string spool_dir() {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("v6mon_metrics_test.") + info->name());
  std::filesystem::create_directories(dir);
  return dir.string();
}

struct CampaignRun {
  std::string counters;       ///< counters_json() after the full campaign.
  std::string observations;   ///< every store's CSV, concatenated.
  std::uint64_t dns_queries = 0;
  std::uint64_t sites_monitored = 0;
  std::uint64_t fast_path_sites = 0;
  std::uint64_t work_list_bytes = 0;       ///< mem.work_list_bytes.
  std::uint64_t catalog_bytes = 0;         ///< mem.catalog_bytes.
  std::uint64_t rib_bytes = 0;             ///< mem.rib_bytes.
  std::uint64_t resolved_slots_bytes = 0;  ///< mem.resolved_slots_bytes.
  std::uint64_t resolved_rows = 0;         ///< monitor.resolved_rows.
  std::uint64_t row_fills = 0;             ///< monitor.row_fills.
  std::uint64_t expected_slots_bytes = 0;  ///< The monitors' tables and registries.
  std::uint64_t results_bytes = 0;         ///< mem.results_bytes.
  std::uint64_t expected_results_bytes = 0;  ///< The stores' bytes, summed.
};

CampaignRun run_instrumented(std::size_t threads, core::SinkBackend backend,
                             bool with_metrics, double timeout_prob = 0.05,
                             bool fast_path = true) {
  // Materialize the shared world while metrics are still off: the lazy
  // first build would otherwise record rib_build counters into whichever
  // run happens to come first, breaking run-to-run comparability.
  (void)small_world();
  auto& reg = obs::metrics();
  reg.reset();
  reg.set_enabled(with_metrics);
  core::CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = threads;
  cfg.sink = backend;
  // DNS timeout injection rides along so the dns.timeouts export is
  // pinned by the same matrix (ISSUE 9: the per-resolver Stats must
  // reach the registry deterministically).
  cfg.monitor.dns.timeout_prob = timeout_prob;
  cfg.fast_path = fast_path;
  if (backend == core::SinkBackend::kSpool) cfg.spool_dir = spool_dir();
  core::Campaign campaign(small_world(), cfg);
  campaign.run();
  campaign.run_w6d();
  campaign.finalize();
  CampaignRun out;
  out.counters = reg.counters_json();
  out.observations = campaign.results(0).to_csv();
  out.observations += campaign.w6d_results(0).to_csv();
  out.dns_queries = reg.counter_value("dns.queries");
  out.sites_monitored = reg.counter_value("campaign.sites_monitored");
  out.fast_path_sites = reg.counter_value("campaign.fast_path_sites");
  out.catalog_bytes = reg.counter_value("mem.catalog_bytes");
  out.rib_bytes = reg.counter_value("mem.rib_bytes");
  out.resolved_slots_bytes = reg.counter_value("mem.resolved_slots_bytes");
  out.resolved_rows = reg.counter_value("monitor.resolved_rows");
  out.row_fills = reg.counter_value("monitor.row_fills");
  out.results_bytes = reg.counter_value("mem.results_bytes");
  out.work_list_bytes = reg.counter_value("mem.work_list_bytes");
  for (std::size_t vp = 0; vp < small_world().vantage_points.size(); ++vp) {
    out.expected_slots_bytes += campaign.monitor(vp).resolved_sites().bytes() +
                                campaign.monitor(vp).routes().bytes();
    out.expected_results_bytes +=
        campaign.results(vp).bytes() + campaign.w6d_results(vp).bytes();
  }
  reg.set_enabled(false);
  reg.reset();
  return out;
}

TEST(MetricsDeterminism, CountersIdenticalAcrossThreadsAndBackends) {
  const CampaignRun reference =
      run_instrumented(1, core::SinkBackend::kSharded, /*with_metrics=*/true);
  // A campaign this size must actually exercise the counters, or this
  // test compares empty exports: "sites_monitored" must not read 0.
  EXPECT_EQ(reference.counters.find("\"campaign.sites_monitored\":0,"),
            std::string::npos);
  // The injected DNS loss must be visible in the export — a zero here
  // means Resolver::Stats::timeouts never reached the registry.
  EXPECT_EQ(reference.counters.find("\"dns.timeouts\":0,"), std::string::npos);
  // Resolution runs on each VP's coordinator, once per (IPv6 record,
  // hosting epoch) index entry it reaches, and characterizes once per new
  // route-pair key: the same counts at every thread count, with fewer
  // rows than entries because sites share rows.
  EXPECT_EQ(reference.counters.find("\"monitor.resolved_slots\":0,"), std::string::npos);
  EXPECT_GT(reference.resolved_rows, 0u);
  EXPECT_LT(reference.resolved_rows, reference.row_fills);
  // The finalized stores' bytes are sizes, not capacities: the same at
  // every thread count and sink backend, and never 0 for stores with rows.
  EXPECT_EQ(reference.counters.find("\"mem.results_bytes\":0,"), std::string::npos);
  // The memory ledger's owners: the catalog by size, the vantage points'
  // RIBs, the monitors' resolved-site rows, index and key map by capacity
  // and their route registries, and the stores. Every resolution of an
  // index entry is counted, re-resolutions after a purge included.
  EXPECT_EQ(reference.catalog_bytes, small_world().catalog.bytes());
  std::uint64_t rib_bytes = 0;
  for (const core::VantagePoint& vp : small_world().vantage_points) {
    rib_bytes += vp.rib.bytes();
  }
  EXPECT_GT(reference.rib_bytes, 0u);
  EXPECT_EQ(reference.rib_bytes, rib_bytes);
  EXPECT_GT(reference.resolved_slots_bytes, 0u);
  EXPECT_EQ(reference.resolved_slots_bytes, reference.expected_slots_bytes);
  EXPECT_EQ(reference.results_bytes, reference.expected_results_bytes);
  EXPECT_EQ(reference.counters.find("\"monitor.row_fills\":0,"), std::string::npos);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (const core::SinkBackend backend :
         {core::SinkBackend::kSharded, core::SinkBackend::kSpool}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " backend="
                                      << static_cast<int>(backend));
      const CampaignRun run = run_instrumented(threads, backend, true);
      EXPECT_EQ(run.counters, reference.counters);
      EXPECT_EQ(run.catalog_bytes, reference.catalog_bytes);
      EXPECT_EQ(run.rib_bytes, reference.rib_bytes);
      EXPECT_EQ(run.resolved_slots_bytes, reference.resolved_slots_bytes);
      EXPECT_EQ(run.resolved_rows, reference.resolved_rows);
      EXPECT_EQ(run.row_fills, reference.row_fills);
      EXPECT_EQ(run.results_bytes, reference.results_bytes);
      EXPECT_EQ(run.observations, reference.observations);
      EXPECT_EQ(run.dns_queries, 2 * (run.sites_monitored + run.fast_path_sites));
    }
  }
}

// Campaign::finalize() adds the round walk's index to the ledger: a flag
// byte per site, the listed counts of every round for both supplement
// classes, and the candidates the walk visits. Sizes, not capacities, so
// the figure is a function of the study alone.
TEST(MetricsDeterminism, WorkListBytesSameAtAnyThreadCount) {
  const CampaignRun one = run_instrumented(1, core::SinkBackend::kSharded, true);
  const std::uint64_t fixed =
      small_world().catalog.size() + 2 * core::kMaxCampaignRounds * sizeof(std::uint32_t);
  // Above the flags and listed counts by the candidates alone: sites with
  // an AAAA window or a lost DNS query, a few bytes each.
  EXPECT_GT(one.work_list_bytes, fixed);
  EXPECT_LT(one.work_list_bytes, fixed + 32 * small_world().catalog.size());
  for (const core::SinkBackend backend :
       {core::SinkBackend::kSharded, core::SinkBackend::kSpool}) {
    SCOPED_TRACE(testing::Message() << "backend=" << static_cast<int>(backend));
    EXPECT_EQ(run_instrumented(4, backend, true).work_list_bytes, one.work_list_bytes);
  }
  // Metrics off: nothing is counted.
  EXPECT_EQ(run_instrumented(4, core::SinkBackend::kSharded, false).work_list_bytes, 0u);
}

// Every site decision issues one A and one AAAA query, whether the
// monitor runs or the round scan settles the site: dns.queries must
// count both paths, at any DNS loss and with the fast path on or off.
TEST(MetricsDeterminism, DnsQueriesCoverEverySiteDecision) {
  for (const double timeout_prob : {0.0, 0.05, 1.0}) {
    for (const bool fast_path : {true, false}) {
      SCOPED_TRACE(testing::Message() << "timeout_prob=" << timeout_prob
                                      << " fast_path=" << fast_path);
      const CampaignRun run = run_instrumented(2, core::SinkBackend::kSharded,
                                               true, timeout_prob, fast_path);
      EXPECT_GT(run.sites_monitored, 0u);
      EXPECT_EQ(run.fast_path_sites > 0, fast_path);
      EXPECT_EQ(run.dns_queries, 2 * (run.sites_monitored + run.fast_path_sites));
    }
  }
}

TEST(MetricsDeterminism, MetricsOnDoesNotPerturbObservations) {
  const CampaignRun off =
      run_instrumented(8, core::SinkBackend::kSharded, /*with_metrics=*/false);
  const CampaignRun on =
      run_instrumented(8, core::SinkBackend::kSharded, /*with_metrics=*/true);
  // Metrics off: the export exists but records nothing.
  EXPECT_NE(off.counters.find("\"campaign.sites_monitored\":0"),
            std::string::npos);
  // Metrics on: same observation bytes, now with populated counters.
  EXPECT_EQ(on.observations, off.observations);
  EXPECT_EQ(on.counters.find("\"campaign.sites_monitored\":0,"),
            std::string::npos);
}

// rib.scope_ases says how much of the graph the RIB build converged over:
// the vantage points' provider closure, summed over both families. It is a
// function of the world alone, so every build thread count reports it
// exactly; rib.dest_tables and rib.routes keep counting whole tables and
// installed routes.
TEST(MetricsDeterminism, RibScopeAsesCountsVantageProviderClosure) {
  core::World world = small_world();
  const topo::AsGraph& g = world.graph;
  std::vector<topo::Asn> vp_ases;
  for (const core::VantagePoint& vp : world.vantage_points) vp_ases.push_back(vp.asn);
  const std::size_t want =
      bgp::SourceScope::provider_closure(bgp::FamilyView(g, ip::Family::kIpv4), vp_ases)
          .size() +
      bgp::SourceScope::provider_closure(bgp::FamilyView(g, ip::Family::kIpv6), vp_ases)
          .size();
  ASSERT_GE(want, 2 * vp_ases.size());
  ASSERT_LT(want, 2 * g.num_ases());

  auto& reg = obs::metrics();
  std::uint64_t dest_tables = 0;
  std::uint64_t routes = 0;
  for (const std::size_t threads : {1u, 4u}) {
    reg.reset();
    reg.set_enabled(true);
    std::size_t installed = 0;
    for (core::VantagePoint& vp : world.vantage_points) vp.rib = bgp::Rib();
    scenario::build_ribs(world, threads);
    for (const core::VantagePoint& vp : world.vantage_points) {
      installed += vp.rib.v4_routes() + vp.rib.v6_routes();
    }
    EXPECT_EQ(reg.counter_value("rib.scope_ases"), want) << "threads=" << threads;
    EXPECT_EQ(reg.counter_value("rib.routes"), installed);
    if (threads == 1) {
      dest_tables = reg.counter_value("rib.dest_tables");
      routes = reg.counter_value("rib.routes");
    }
    EXPECT_EQ(reg.counter_value("rib.dest_tables"), dest_tables);
    EXPECT_EQ(reg.counter_value("rib.routes"), routes);
  }
  EXPECT_GT(dest_tables, 0u);
  reg.set_enabled(false);
  reg.reset();
}

// An evolving campaign spends its epoch advances in the epoch_advance
// stage, one span per boundary that applies an epoch, and counts the
// resolved-site rows each boundary invalidates. Both are functions of
// the world and the schedule alone, so every thread count reports them
// exactly; a frozen campaign records neither.
TEST(MetricsDeterminism, EpochAdvanceStageAndRowInvalidations) {
  (void)small_world();  // built with metrics off, as run_instrumented does
  scenario::WorldSpec spec = small_spec();
  spec.evolution.enabled = true;
  spec.evolution.delta_rate = 4.0;
  spec.evolution.epoch_interval = 2;
  spec.evolution.max_as_fraction = 0.05;
  auto& reg = obs::metrics();
  std::uint64_t invalidated = 0;
  for (const std::size_t threads : {1u, 4u}) {
    core::WorldTimeline timeline = scenario::build_timeline(spec);
    ASSERT_GT(timeline.num_epochs(), 0u);
    reg.reset();
    reg.set_enabled(true);
    core::CampaignConfig cfg;
    cfg.seed = 2011;
    cfg.threads = threads;
    core::Campaign campaign(timeline, cfg);
    campaign.run();
    EXPECT_EQ(timeline.current_epoch(), timeline.num_epochs());
    EXPECT_EQ(reg.stage_totals(obs::Stage::kEpochAdvance).calls, timeline.num_epochs())
        << "threads=" << threads;
    if (threads == 1) invalidated = reg.counter_value("monitor.rows_invalidated");
    EXPECT_EQ(reg.counter_value("monitor.rows_invalidated"), invalidated);
  }
  EXPECT_GT(invalidated, 0u);

  reg.reset();
  reg.set_enabled(true);
  core::CampaignConfig cfg;
  cfg.seed = 2011;
  core::Campaign frozen(small_world(), cfg);
  frozen.run();
  EXPECT_EQ(reg.stage_totals(obs::Stage::kEpochAdvance).calls, 0u);
  EXPECT_EQ(reg.counter_value("monitor.rows_invalidated"), 0u);
  reg.set_enabled(false);
  reg.reset();
}

}  // namespace
}  // namespace v6mon
