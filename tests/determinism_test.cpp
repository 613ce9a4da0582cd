// Determinism under parallelism: every campaign observable must be a pure
// function of (world, seed) — never of thread count, chunking, or worker
// scheduling. This is the contract that makes `threads` a pure performance
// knob: threads=1 is the serial reference, threads=8 must reproduce it
// byte for byte, all the way through the analysis tables. A failure here
// means some RNG stream or result slot picked up scheduling state.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/tables.h"
#include "core/campaign.h"
#include "core/world_timeline.h"
#include "reference_schedule.h"
#include "scenario/evolution.h"
#include "scenario/world_builder.h"

namespace v6mon::core {
namespace {

scenario::WorldSpec tiny_spec() {
  scenario::WorldSpec spec;
  spec.seed = 1103;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 25;
  spec.topology.num_stub = 120;
  spec.catalog.initial_sites = 2000;
  spec.catalog.churn_per_round = 10;
  spec.catalog.num_rounds = 8;
  spec.catalog.adoption = {0.5, 0.4, 0.3, 0.25, 0.2, 0.15};
  spec.w6d_round = 5;  // exercise the mini-round path too
  spec.vantage_points = {{.name = "VP-a",
                          .type = VantagePoint::Type::kAcademic,
                          .region = topo::Region::kNorthAmerica,
                          .start_round = 0,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSameProviders},
                         {.name = "VP-b",
                          .type = VantagePoint::Type::kCommercial,
                          .region = topo::Region::kEurope,
                          .start_round = 2,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSubsetProviders}};
  return spec;
}

const World& tiny_world() {
  static const World w = scenario::build_world(tiny_spec());
  return w;
}

/// Run a complete campaign (regular rounds + W6D + finalize). Heap-held:
/// Campaign owns a ThreadPool and is therefore not movable.
std::unique_ptr<Campaign> run_campaign(const World& world, CampaignConfig cfg) {
  auto campaign = std::make_unique<Campaign>(world, std::move(cfg));
  campaign->run();
  campaign->run_w6d();
  campaign->finalize();
  return campaign;
}

void expect_identical_observables(const Campaign& serial, const Campaign& parallel) {
  const World& world = serial.world();
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    SCOPED_TRACE(world.vantage_points[vp].name);
    const ResultsDb& a = serial.results(vp);
    const ResultsDb& b = parallel.results(vp);
    // Full observation dump: site, round, status, speeds, sample counts,
    // rendered AS paths, origins — everything downstream analysis reads.
    EXPECT_EQ(a.to_csv(), b.to_csv());
    EXPECT_EQ(serial.w6d_results(vp).to_csv(), parallel.w6d_results(vp).to_csv());
    // Same set of distinct paths observed (ids may be interned in a
    // different order — only path *content* is an observable).
    EXPECT_EQ(a.paths().size(), b.paths().size());
    ASSERT_EQ(a.rounds(), b.rounds());
    for (std::uint32_t r = 0; r < a.rounds(); ++r) {
      const RoundCounters& ca = a.round_counters(r);
      const RoundCounters& cb = b.round_counters(r);
      EXPECT_EQ(ca.listed, cb.listed) << "round " << r;
      EXPECT_EQ(ca.v4_only, cb.v4_only) << "round " << r;
      EXPECT_EQ(ca.v6_only, cb.v6_only) << "round " << r;
      EXPECT_EQ(ca.dual, cb.dual) << "round " << r;
      EXPECT_EQ(ca.dns_failed, cb.dns_failed) << "round " << r;
      EXPECT_EQ(ca.measured, cb.measured) << "round " << r;
      EXPECT_EQ(ca.different_content, cb.different_content) << "round " << r;
      EXPECT_EQ(ca.download_failed, cb.download_failed) << "round " << r;
    }
  }
}

/// Render one analysis table per campaign, for an end-to-end byte compare.
std::string table4_csv(const Campaign& campaign) {
  const World& world = campaign.world();
  std::vector<ObservationView> views;
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    views.emplace_back(campaign.results(vp));
  }
  const auto reports = analysis::analyze_world(world, views);
  return analysis::table4_render(analysis::table4_classification(reports)).to_csv();
}

TEST(Determinism, ThreadCountInvisibleInResultsAndAnalysis) {
  CampaignConfig serial_cfg;
  serial_cfg.seed = 2011;
  serial_cfg.threads = 1;
  CampaignConfig parallel_cfg = serial_cfg;
  parallel_cfg.threads = 8;

  const auto serial = run_campaign(tiny_world(), serial_cfg);
  const auto parallel = run_campaign(tiny_world(), parallel_cfg);

  expect_identical_observables(*serial, *parallel);
  EXPECT_EQ(table4_csv(*serial), table4_csv(*parallel));
}

// Failure injection exercises the RNG-hungriest code paths (DNS timeout
// draws happen per query, download failures per fetch) — exactly where a
// chunk-coupled or worker-coupled stream would first show.
TEST(Determinism, ThreadCountInvisibleUnderFailureInjection) {
  CampaignConfig serial_cfg;
  serial_cfg.seed = 404;
  serial_cfg.threads = 1;
  serial_cfg.monitor.dns.timeout_prob = 0.2;
  serial_cfg.monitor.download.failure_prob = 0.05;
  CampaignConfig parallel_cfg = serial_cfg;
  parallel_cfg.threads = 8;

  const auto serial = run_campaign(tiny_world(), serial_cfg);
  const auto parallel = run_campaign(tiny_world(), parallel_cfg);

  expect_identical_observables(*serial, *parallel);
}

// --- Sink-backend matrix ----------------------------------------------------
//
// The ingest backend (the in-memory store, or the binary spool with
// replay) must be as invisible as the thread count: every (backend,
// threads) cell of the matrix reproduces the serial in-memory reference
// (threads = 1) byte for byte — observation CSVs, per-round counters, and
// the analysis tables built on top.

std::unique_ptr<Campaign> run_with(SinkBackend sink, unsigned threads,
                                   std::uint64_t seed, const std::string& spool_dir,
                                   double dns_timeout_prob = 0.0,
                                   double dl_failure_prob = 0.0) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.sink = sink;
  cfg.spool_dir = spool_dir;
  if (sink == SinkBackend::kSpool) std::filesystem::create_directories(spool_dir);
  cfg.monitor.dns.timeout_prob = dns_timeout_prob;
  cfg.monitor.download.failure_prob = dl_failure_prob;
  return run_campaign(tiny_world(), cfg);
}

class SinkBackendMatrix : public ::testing::TestWithParam<SinkBackend> {};

TEST_P(SinkBackendMatrix, ByteIdenticalToSerialMutexReference) {
  const std::string dir = ::testing::TempDir();
  const auto reference =
      run_with(SinkBackend::kSharded, 1, 2011, dir + "/ref");
  const auto serial = run_with(GetParam(), 1, 2011, dir + "/t1");
  const auto parallel = run_with(GetParam(), 8, 2011, dir + "/t8");

  expect_identical_observables(*reference, *serial);
  expect_identical_observables(*reference, *parallel);
  EXPECT_EQ(table4_csv(*reference), table4_csv(*serial));
  EXPECT_EQ(table4_csv(*reference), table4_csv(*parallel));
}

TEST_P(SinkBackendMatrix, ByteIdenticalUnderFailureInjection) {
  const std::string dir = ::testing::TempDir();
  const auto reference =
      run_with(SinkBackend::kSharded, 1, 404, dir + "/fref", 0.2, 0.05);
  const auto parallel = run_with(GetParam(), 8, 404, dir + "/ft8", 0.2, 0.05);

  expect_identical_observables(*reference, *parallel);
  EXPECT_EQ(table4_csv(*reference), table4_csv(*parallel));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SinkBackendMatrix,
                         ::testing::Values(SinkBackend::kSharded,
                                           SinkBackend::kSpool),
                         [](const auto& cell) {
                           switch (cell.param) {
                             case SinkBackend::kSharded: return "Sharded";
                             case SinkBackend::kSpool: return "Spool";
                           }
                           return "Unknown";
                         });

// --- One registry per vantage point -----------------------------------------
//
// Only a VP's coordinator interns into its registry, in work-list order,
// so the registry's content in id order is a function of the study: the
// same at every thread count and sink backend, frozen or evolving. The
// spool writes each registry path once, each round's rows in work-list
// order and one counter record per round, so its files are the same size
// at every thread count. (The fast path's work lists differ from the full
// pipeline's, so registries are not compared across `fast_path`.)

/// A registry's content in id order: every path, route and pair.
std::string registry_text(const PathRegistry& reg) {
  std::string out;
  for (PathId id = 0; id < reg.size(); ++id) out += reg.to_string(id) + "\n";
  for (RouteId id = 0; id < reg.route_count(); ++id) {
    const Route r = reg.route(id);
    out += std::to_string(r.origin) + " " + std::to_string(r.path) + "\n";
  }
  for (PairId id = 0; id < reg.pair_count(); ++id) {
    const RoutePair p = reg.pair(id);
    out += std::to_string(p.v4) + " " + std::to_string(p.v6) + "\n";
  }
  return out;
}

/// A finished study (regular rounds, W6D, finalize) on tiny_world, or on
/// its evolving twin: an epoch every second round plus the inflections.
struct Study {
  std::unique_ptr<WorldTimeline> timeline;  ///< Null for the frozen world.
  std::unique_ptr<Campaign> campaign;
};

Study run_study(bool evolving, SinkBackend sink, unsigned threads,
                const std::string& spool_dir) {
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = threads;
  cfg.sink = sink;
  cfg.spool_dir = spool_dir;
  std::filesystem::create_directories(spool_dir);
  Study study;
  if (!evolving) {
    study.campaign = run_campaign(tiny_world(), cfg);
    return study;
  }
  scenario::WorldSpec spec = tiny_spec();
  spec.evolution.enabled = true;
  spec.evolution.delta_rate = 4.0;
  spec.evolution.epoch_interval = 2;
  spec.evolution.max_as_fraction = 0.05;
  spec.evolution.depletion_round = 4;
  study.timeline = std::make_unique<WorldTimeline>(scenario::build_timeline(spec));
  EXPECT_GT(study.timeline->num_epochs(), 0u);
  study.campaign = std::make_unique<Campaign>(*study.timeline, cfg);
  study.campaign->run();
  study.campaign->run_w6d();
  study.campaign->finalize();
  return study;
}

TEST(Determinism, VpRegistryContentInvisibleToThreadsAndSinks) {
  const std::string dir = ::testing::TempDir() + "/registry";
  for (const bool evolving : {false, true}) {
    SCOPED_TRACE(evolving ? "evolving" : "frozen");
    std::vector<std::string> reference;
    int cell = 0;
    for (const unsigned threads : {1u, 4u, 8u}) {
      for (const SinkBackend sink : {SinkBackend::kSharded, SinkBackend::kSpool}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " sink=" + std::to_string(static_cast<int>(sink)));
        const Study study =
            run_study(evolving, sink, threads, dir + "/" + std::to_string(cell++));
        std::vector<std::string> texts;
        for (std::size_t vp = 0; vp < tiny_world().vantage_points.size(); ++vp) {
          texts.push_back(registry_text(study.campaign->monitor(vp).routes()));
        }
        if (reference.empty()) {
          reference = texts;
        } else {
          EXPECT_EQ(texts, reference);
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Determinism, SpoolSizeInvisibleToThreads) {
  const std::string dir = ::testing::TempDir() + "/spool_size";
  for (const bool evolving : {false, true}) {
    SCOPED_TRACE(evolving ? "evolving" : "frozen");
    std::vector<std::uintmax_t> reference;
    for (const unsigned threads : {1u, 4u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const std::string cell_dir = dir + "/t" + std::to_string(threads);
      const Study study = run_study(evolving, SinkBackend::kSpool, threads, cell_dir);
      std::vector<std::uintmax_t> sizes;
      for (std::size_t vp = 0; vp < tiny_world().vantage_points.size(); ++vp) {
        for (const char* tag : {"", "_w6d"}) {
          sizes.push_back(std::filesystem::file_size(
              cell_dir + "/vp" + std::to_string(vp) + tag + ".spool"));
        }
      }
      if (reference.empty()) {
        reference = sizes;
      } else {
        EXPECT_EQ(sizes, reference);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// --- Campaign schedule matrix -----------------------------------------------
//
// Campaign::run()'s schedule (concurrent per-VP round chains, sites
// fanned out or looped inline) is a scheduling layer, not a semantic
// one. The reference bypasses it — in-memory store, one thread, the
// serial per-round loop of reference_schedule.h — and every cell across
// threads and sink backends must reproduce it byte for byte. A round fans out
// only with at least 16 sites per worker. Without DNS loss tiny_world's
// regular rounds queue 56 to 492 sites (its dual-stack sites) and its
// W6D mini-rounds 190, so in CampaignScheduleInvisible:
//   threads = 1   runs every round serially (a one-worker pool);
//   threads = 2   fans every round out (threshold 32), two chains at once;
//   threads = 6   loops round 0 (56 sites) inline (threshold 96) and fans
//                 out the other rounds and W6D;
//   threads = 8   loops rounds 0-1 inline (threshold 128), fans out the
//                 rest and W6D;
//   threads = 16  loops rounds 0-3 and W6D inline (threshold 256) and
//                 fans out rounds 4-8.
// Both regimes are thus covered against the serial reference. Under
// failure injection (p = 0.2) about a third of the listed sites lose one
// query and join the work list, so every round fans out at threads = 8.

std::unique_ptr<Campaign> run_reference(std::uint64_t seed,
                                        double dns_timeout_prob = 0.0,
                                        double dl_failure_prob = 0.0) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.threads = 1;
  cfg.monitor.dns.timeout_prob = dns_timeout_prob;
  cfg.monitor.download.failure_prob = dl_failure_prob;
  auto campaign = std::make_unique<Campaign>(tiny_world(), cfg);
  run_reference_schedule(*campaign, /*evolving=*/false);
  return campaign;
}

TEST(Determinism, CampaignScheduleInvisible) {
  const std::string dir = ::testing::TempDir();
  const auto reference = run_reference(2011);
  for (const SinkBackend sink : {SinkBackend::kSharded, SinkBackend::kSpool}) {
    for (const unsigned threads : {1u, 2u, 6u, 8u, 16u}) {
      const std::string tag = std::string(sink == SinkBackend::kSpool ? "spool" : "sharded") +
                              "-t" + std::to_string(threads);
      SCOPED_TRACE(tag);
      const auto run = run_with(sink, threads, 2011, dir + "/x-" + tag);
      expect_identical_observables(*reference, *run);
      EXPECT_EQ(table4_csv(*reference), table4_csv(*run));
    }
  }
}

// Same matrix corner under failure injection: the RNG-hungriest paths,
// now also crossing independent round chains (VP-a may be rounds ahead
// of VP-b when both draw from their streams).
TEST(Determinism, CampaignScheduleInvisibleUnderFailureInjection) {
  const std::string dir = ::testing::TempDir();
  const auto reference = run_reference(404, 0.2, 0.05);
  const auto scheduled = run_with(SinkBackend::kSharded, 8, 404, dir + "/xf8",
                                  0.2, 0.05);
  expect_identical_observables(*reference, *scheduled);
  EXPECT_EQ(table4_csv(*reference), table4_csv(*scheduled));
}

// The RIBs a campaign reads must themselves be schedule-free: building the
// same world with a serial and a wide pool must give identical tables.
TEST(Determinism, RibBuildThreadCountInvisible) {
  scenario::WorldSpec serial_spec = tiny_spec();
  serial_spec.build_threads = 1;
  scenario::WorldSpec parallel_spec = tiny_spec();
  parallel_spec.build_threads = 8;
  const World serial = scenario::build_world(serial_spec);
  const World parallel = scenario::build_world(parallel_spec);
  ASSERT_EQ(serial.vantage_points.size(), parallel.vantage_points.size());
  for (std::size_t i = 0; i < serial.vantage_points.size(); ++i) {
    EXPECT_EQ(serial.vantage_points[i].rib.v4_routes(),
              parallel.vantage_points[i].rib.v4_routes());
    EXPECT_EQ(serial.vantage_points[i].rib.v6_routes(),
              parallel.vantage_points[i].rib.v6_routes());
    // mem.rib_bytes sums these: trie nodes, entry slots and paths.
    EXPECT_EQ(serial.vantage_points[i].rib.bytes(), parallel.vantage_points[i].rib.bytes());
  }
  // Same campaign on both worlds: any divergent route would surface in
  // the observation dump (paths, origins, speeds).
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.threads = 2;
  const auto a = run_campaign(serial, cfg);
  const auto b = run_campaign(parallel, cfg);
  for (std::size_t vp = 0; vp < serial.vantage_points.size(); ++vp) {
    EXPECT_EQ(a->results(vp).to_csv(), b->results(vp).to_csv());
  }
}

}  // namespace
}  // namespace v6mon::core
