// End-to-end pipeline throughput harness (the PR-level perf contract).
//
// Times the stages that dominate a full study — world construction (and
// the site catalog within it), RIB construction, one campaign round, and
// the analysis pass — at thread counts 1 and 4, so the speedup of the
// parallel RIB fan-out and the persistent campaign pool is a number in a
// JSON artifact rather than a claim in a commit message:
//
//   build/bench/bench_pipeline --benchmark_out=BENCH_pipeline.json
//                              --benchmark_out_format=json
//
// Each benchmark builds what it times itself: the construction is the
// thing under test. Environment knobs: V6MON_BENCH_SEED (default 2011)
// and V6MON_BENCH_SCALE (default 1.0).
//
// Note on thread counts: 4 is what the baseline host can run (its CPU
// count is in the JSON context as num_cpus); on a single-core runner the
// 1-vs-4 pairs tie — the JSON still pins the serial cost of every stage,
// which is what the CI perf-smoke job tracks.

#include "common.h"

#include <iterator>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "bgp/rib.h"
#include "core/campaign.h"
#include "core/monitor.h"
#include "core/world_timeline.h"
#include "scenario/evolution.h"
#include "obs/metrics.h"
#include "scenario/paper.h"
#include "scenario/world_builder.h"
#include "transport/download.h"
#include "transport/path.h"
#include "util/rng.h"
#include "web/catalog.h"

namespace {

using namespace v6mon;

std::uint64_t bench_seed() { return bench::seed_from_env(2011); }

double bench_scale() { return bench::scale_from_env(1.0); }

/// Shared world for the stages that only *read* it (RIB rebuilds swap the
/// per-VP tries out and back in; observations never touch the world).
core::World& shared_world() {
  static core::World world =
      scenario::build_world(scenario::paper_spec(bench_seed(), bench_scale()));
  return world;
}

void BM_WorldBuild(benchmark::State& state) {
  scenario::WorldSpec spec = scenario::paper_spec(bench_seed(), bench_scale());
  spec.build_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::World world = scenario::build_world(spec);
    benchmark::DoNotOptimize(world.catalog.size());
  }
}
BENCHMARK(BM_WorldBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// The site catalog alone, on the shared scale-1.0 graph (the catalog
/// reads only nodes and their address blocks, which the tunnel overlay
/// leaves as they were): the serial stream pass plus the value pass at
/// `threads` workers.
void BM_CatalogGenerate(benchmark::State& state) {
  const core::World& world = shared_world();
  const scenario::WorldSpec spec = scenario::paper_spec(bench_seed(), bench_scale());
  web::CatalogParams params = spec.catalog;
  params.w6d_round = spec.w6d_round;
  for (auto _ : state) {
    util::Rng rng = util::Rng(spec.seed).child("catalog");
    const web::SiteCatalog catalog = web::SiteCatalog::generate(
        world.graph, params, rng, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(catalog.size());
  }
}
BENCHMARK(BM_CatalogGenerate)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_RibBuild(benchmark::State& state) {
  core::World& world = shared_world();
  for (auto _ : state) {
    state.PauseTiming();
    for (core::VantagePoint& vp : world.vantage_points) vp.rib = bgp::Rib();
    state.ResumeTiming();
    scenario::build_ribs(world, static_cast<std::size_t>(state.range(0)));
  }
}
BENCHMARK(BM_RibBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CampaignRound(benchmark::State& state) {
  const core::World& world = shared_world();
  core::CampaignConfig cfg = scenario::paper_campaign_config(bench_seed());
  cfg.threads = static_cast<std::size_t>(state.range(0));
  // A mid-campaign round: every VP is active and IPv6 adoption is well
  // past the initial trickle, so the dual-stack (expensive) population is
  // representative.
  const std::uint32_t round = world.num_rounds / 2;
  for (auto _ : state) {
    state.PauseTiming();
    auto campaign = std::make_unique<core::Campaign>(world, cfg);
    state.ResumeTiming();
    for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
      campaign->run_round(vp, round);
    }
  }
}
BENCHMARK(BM_CampaignRound)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// The same round with the observability layer recording: CI asserts the
/// metrics-on/4t mean stays within 3% of BM_CampaignRound/4 (the
/// "near-zero cost" contract of DESIGN.md §11).
void BM_CampaignRoundMetricsOn(benchmark::State& state) {
  const core::World& world = shared_world();
  core::CampaignConfig cfg = scenario::paper_campaign_config(bench_seed());
  cfg.threads = static_cast<std::size_t>(state.range(0));
  const std::uint32_t round = world.num_rounds / 2;
  obs::metrics().set_enabled(true);
  for (auto _ : state) {
    state.PauseTiming();
    auto campaign = std::make_unique<core::Campaign>(world, cfg);
    state.ResumeTiming();
    for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
      campaign->run_round(vp, round);
    }
  }
  obs::metrics().set_enabled(false);
  obs::metrics().reset();
}
BENCHMARK(BM_CampaignRoundMetricsOn)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// The same round again with the conn layer dialing every dual-stack
/// site under kSequential (ISSUE 9). Bounds the fallback overhead; the
/// kNone contract — plain BM_CampaignRound stays within 3% of its
/// pre-conn-layer baseline — is gated by perf-smoke on the committed
/// JSON, since kNone compiles to the identical pre-ISSUE-9 code path.
void BM_CampaignRoundFallback(benchmark::State& state) {
  const core::World& world = shared_world();
  core::CampaignConfig cfg = scenario::paper_campaign_config(bench_seed());
  cfg.threads = static_cast<std::size_t>(state.range(0));
  cfg.monitor.fallback = core::FallbackPolicy::kSequential;
  const std::uint32_t round = world.num_rounds / 2;
  for (auto _ : state) {
    state.PauseTiming();
    auto campaign = std::make_unique<core::Campaign>(world, cfg);
    state.ResumeTiming();
    for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
      campaign->run_round(vp, round);
    }
  }
}
BENCHMARK(BM_CampaignRoundFallback)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FullCampaign(benchmark::State& state) {
  const core::World& world = shared_world();
  core::CampaignConfig cfg = scenario::paper_campaign_config(bench_seed());
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto campaign = std::make_unique<core::Campaign>(world, cfg);
    state.ResumeTiming();
    campaign->run();
    campaign->run_w6d();
    campaign->finalize();
  }
}
BENCHMARK(BM_FullCampaign)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

// --- Multi-VP scheduling ----------------------------------------------------
//
// Several vantage points sharing one pool: the campaign runs per-VP
// round chains concurrently, with barriers only at epoch rounds, where
// the world actually moves.
//
// The fixture is deliberately NOT paper_spec: site throughput under the
// paper's 200k-site catalog is BM_FullCampaign's job, and there the
// per-round monitor work amortizes any scheduling cost. This fixture
// isolates the scheduler in the regime where it matters most: many
// vantage points advancing through many rounds whose individual work
// lists are small, where each chain loops its sites inline.

scenario::WorldSpec multi_vp_spec() {
  scenario::WorldSpec spec;
  spec.seed = bench_seed();
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 30;
  spec.topology.num_stub = 150;
  spec.catalog.initial_sites = 250;
  spec.catalog.churn_per_round = 5;
  spec.catalog.num_rounds = 240;
  // Catalog adoption stays at the paper defaults (~1-2% of sites dual
  // stack): the realistic accessibility rate is exactly what makes the
  // per-(vp, round) work lists small enough for scheduling to matter.
  spec.w6d_round = 120;
  const scenario::V6UplinkMode modes[] = {
      scenario::V6UplinkMode::kSameProviders,
      scenario::V6UplinkMode::kSubsetProviders,
      scenario::V6UplinkMode::kSeparateProvider};
  const topo::Region regions[] = {topo::Region::kNorthAmerica,
                                  topo::Region::kEurope, topo::Region::kAsia};
  for (int i = 0; i < 8; ++i) {
    spec.vantage_points.push_back(
        {.name = "VP-" + std::to_string(i),
         .type = i % 2 == 0 ? core::VantagePoint::Type::kAcademic
                            : core::VantagePoint::Type::kCommercial,
         .region = regions[i % 3],
         .start_round = static_cast<std::uint32_t>(i % 4),
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = i % 4 == 0,
         .num_v4_providers = 1 + i % 2,
         .v6_mode = modes[i % 3]});
  }
  return spec;
}

core::World& multi_vp_world() {
  static core::World world = scenario::build_world(multi_vp_spec());
  return world;
}

void BM_CampaignMultiVp(benchmark::State& state) {
  const core::World& world = multi_vp_world();
  core::CampaignConfig cfg = scenario::paper_campaign_config(bench_seed());
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto campaign = std::make_unique<core::Campaign>(world, cfg);
    state.ResumeTiming();
    campaign->run();
    campaign->run_w6d();
    campaign->finalize();
  }
  state.counters["vps"] = static_cast<double>(world.vantage_points.size());
}
BENCHMARK(BM_CampaignMultiVp)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

/// The measurement kernel in isolation: one family's repeat-until-CI
/// download loop (one simulate_prepared per attempt + precomputed gate
/// table), over a representative dual-stack path. Each iteration uses a
/// fresh per-key RNG stream, like a (site, round) would.
void BM_MeasureFamily(benchmark::State& state) {
  const core::World& world = shared_world();
  const core::CampaignConfig cfg = scenario::paper_campaign_config(bench_seed());
  static const core::Monitor monitor(world, world.vantage_points.front(),
                                     cfg.monitor);
  transport::PathCharacteristics path;
  path.valid = true;
  path.rtt_ms = 120.0;
  path.bottleneck_kBps = 400.0;
  const transport::DownloadSimulator sim(cfg.monitor.download);
  const transport::PreparedDownload prep = sim.prepare(path, 80.0, 300.0);
  const util::Rng root(bench_seed());
  transport::DownloadTally tally;
  std::uint64_t key = 0;
  for (auto _ : state) {
    util::Rng rng = root.child("bench_mf", key++);
    benchmark::DoNotOptimize(monitor.measure_family(prep, rng, tally));
  }
  benchmark::DoNotOptimize(tally.attempts);
}
BENCHMARK(BM_MeasureFamily)->Unit(benchmark::kMicrosecond);

void BM_Analysis(benchmark::State& state) {
  const core::World& world = shared_world();
  // One campaign feeds every iteration: analysis is a pure read.
  static const auto campaign = [] {
    core::CampaignConfig cfg = scenario::paper_campaign_config(bench_seed());
    auto c = std::make_unique<core::Campaign>(shared_world(), cfg);
    c->run();
    c->finalize();
    return c;
  }();
  std::vector<core::ObservationView> views;
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    views.emplace_back(campaign->results(vp));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_world(world, views));
  }
}
BENCHMARK(BM_Analysis)->Unit(benchmark::kMillisecond);

// --- Epoch advance: per-epoch scoped rebuild -------------------------------
//
// Times advancing the evolving world through its whole delta stream: at
// each epoch the tracked IPv6 destinations re-converge over the vantage
// points' provider closure and the moved VP RIB rows are rewritten. The
// paper-calendar generator's defaults: an epoch every 8 rounds, <= 1% of
// the ASes named per epoch.

/// One timed pass over every epoch. Fresh timeline per iteration
/// (advancing mutates it); the world build is paused out.
void BM_EpochAdvance(benchmark::State& state) {
  scenario::WorldSpec spec = scenario::paper_spec(bench_seed(), bench_scale());
  spec.evolution.enabled = true;
  std::size_t epochs_timed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto timeline =
        std::make_unique<core::WorldTimeline>(scenario::build_timeline(spec));
    state.ResumeTiming();
    timeline->advance_to(timeline->world().num_rounds);
    epochs_timed = timeline->num_epochs();
    benchmark::DoNotOptimize(timeline->epoch_stats().back().changed_routes);
  }
  state.counters["epochs"] = static_cast<double>(epochs_timed);
}
BENCHMARK(BM_EpochAdvance)->Unit(benchmark::kMillisecond);

// --- Observation dump: ResultsDb::write_csv formatting throughput ----------

/// Swallows every byte, counting them: the dump's formatting cost without
/// the disk.
class CountingNullStreambuf : public std::streambuf {
 public:
  std::size_t bytes = 0;

 protected:
  int overflow(int c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::size_t>(n);
    return n;
  }
};

/// A finalized store shaped like one paper vantage point's dump, at 1M
/// rows: 25k sites x 40 rounds, mostly measured rows whose per-site v4/v6
/// paths (2-6 hops, Zipf-popular among 6000 distinct paths) repeat every
/// round, plus failure-status rows (DNS failures carry no paths).
const core::ResultsDb& observation_store() {
  static const std::unique_ptr<const core::ResultsDb> db = [] {
    auto store = std::make_unique<core::ResultsDb>();
    util::Rng rng(bench_seed());
    std::vector<core::RouteId> pool(6000);
    std::vector<topo::Asn> hops;
    for (core::RouteId& id : pool) {
      hops.resize(static_cast<std::size_t>(rng.uniform_int(2, 6)));
      for (topo::Asn& a : hops) a = rng.uniform_u32(1, 4000);
      id = store->paths().intern_route(hops.back(), hops);
    }
    const core::MonitorStatus other[] = {
        core::MonitorStatus::kDnsFailed, core::MonitorStatus::kV6Only,
        core::MonitorStatus::kV6DownloadFailed, core::MonitorStatus::kDifferentContent};
    for (std::uint32_t site = 0; site < 25'000; ++site) {
      const core::RouteId v4 = pool[rng.zipf(pool.size(), 1.0) - 1];
      const core::RouteId v6 = pool[rng.zipf(pool.size(), 1.0) - 1];
      const core::PairId pair = store->paths().intern_pair(v4, v6);
      for (std::uint16_t round = 0; round < 40; ++round) {
        core::Observation o;
        o.site = site;
        o.round = round;
        o.status = rng.chance(0.85) ? core::MonitorStatus::kMeasured
                                    : other[rng.index(std::size(other))];
        if (o.status != core::MonitorStatus::kDnsFailed) {
          o.v4_speed_kBps = static_cast<float>(rng.lognormal_median(300.0, 1.0));
          o.v6_speed_kBps = static_cast<float>(rng.lognormal_median(250.0, 1.2));
          o.v4_samples = static_cast<std::uint16_t>(rng.uniform_int(3, 40));
          o.v6_samples = static_cast<std::uint16_t>(rng.uniform_int(3, 40));
          o.route_pair = pair;
        }
        store->add(o);
      }
    }
    store->finalize();
    return store;
  }();
  return *db;
}

/// The dump at its default worker count, one per hardware thread.
void BM_ObservationCsv(benchmark::State& state) {
  const core::ResultsDb& db = observation_store();
  CountingNullStreambuf sink;
  std::ostream out(&sink);
  for (auto _ : state) {
    db.write_csv(out);
    benchmark::DoNotOptimize(sink.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(sink.bytes));
}
BENCHMARK(BM_ObservationCsv)->Unit(benchmark::kMillisecond);

/// The same dump formatted on the calling thread alone: the per-row
/// formatter's cost, apart from the chunk hand-off's parallelism.
void BM_ObservationCsvSerial(benchmark::State& state) {
  const core::ResultsDb& db = observation_store();
  CountingNullStreambuf sink;
  std::ostream out(&sink);
  for (auto _ : state) {
    db.write_csv(out, 1);
    benchmark::DoNotOptimize(sink.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(sink.bytes));
}
BENCHMARK(BM_ObservationCsvSerial)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Stamp the library-under-test build type into the JSON context: the
  // stock "library_build_type" key describes libbenchmark (a system debug
  // build here), so perf-smoke gates on this key instead.
  benchmark::AddCustomContext("v6mon_build_type", V6MON_BENCH_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
