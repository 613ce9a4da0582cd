#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/monitor.h"
#include "core/results.h"
#include "core/thread_pool.h"
#include "core/world_timeline.h"
#include "obs/metrics.h"
#include "reference/dns_reference.h"
#include "reference_schedule.h"
#include "scenario/evolution.h"
#include "scenario/paper.h"
#include "scenario/world_builder.h"
#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::core {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), v6mon::ConfigError);
}

TEST(ParallelIndex, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_index(pool, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
  }
}

// The campaign's segment shape: an outer parallel_index over more items
// (vantage-point chains) than workers, each nesting a parallel_index on
// the same pool (its sites). Every worker is busy with an outer item, so
// a nested call that waited for helpers to *start* would deadlock; with
// caller participation each nested call drains its own indices inline.
TEST(ParallelIndex, NestedOnSaturatedPoolCompletes) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  constexpr std::size_t kOuter = 16;  // 4x oversubscribed
  constexpr std::size_t kInner = 64;
  parallel_index(pool, kOuter, [&](std::size_t) {
    parallel_index(pool, kInner, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

// A throwing body neither terminates the process (a worker's throw used
// to escape worker_loop) nor cuts the call short: every index runs once,
// and the caller gets the lowest throwing index's exception whichever
// order the indices ran in.
TEST(ParallelIndex, RethrowsLowestIndexExceptionAfterEveryIndexRan) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    constexpr std::size_t kN = 64;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<bool> seven_threw{false};
    try {
      parallel_index(pool, kN, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 7) {
          seven_threw.store(true);
          throw Error("index 7");
        }
        if (i == 3) {
          // Throw after index 7 (other threads claim it meanwhile), so
          // the lower index is not also the first in time.
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (!seven_threw.load() && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          throw Error("index 3");
        }
      });
      ADD_FAILURE() << "parallel_index swallowed the exceptions";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "index 3");
    }
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
    }
  }
  // Still usable afterwards: no worker died, nothing is left queued.
  std::atomic<std::size_t> total{0};
  parallel_index(pool, 1000, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1000u);
  pool.wait_idle();
}

TEST(ParallelIndex, SerialShapesRethrowLowestIndexToo) {
  ThreadPool one(1);
  std::vector<int> hits(10, 0);
  EXPECT_THROW(parallel_index(one, hits.size(),
                              [&](std::size_t i) {
                                ++hits[i];
                                if (i == 2 || i == 5) throw Error(std::to_string(i));
                              }),
               Error);
  EXPECT_EQ(hits, std::vector<int>(10, 1));
}

TEST(PathRegistry, InternsAndDeduplicates) {
  PathRegistry reg;
  const std::vector<topo::Asn> p1{1, 2, 3};
  const std::vector<topo::Asn> p2{1, 2, 4};
  const PathId a = reg.intern(p1);
  const PathId b = reg.intern(p2);
  const PathId c = reg.intern(p1);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.path(a), p1);
  EXPECT_EQ(reg.to_string(a), "AS1 AS2 AS3");
  EXPECT_EQ(reg.to_string(kNoPath), "-");
  EXPECT_EQ(reg.to_string(reg.intern({})), "(local)");
}

TEST(ResultsDb, CountersBucketStatuses) {
  ResultsDb db;
  db.count(0, MonitorStatus::kV4Only);
  db.count(0, MonitorStatus::kV4Only);
  db.count(0, MonitorStatus::kMeasured);
  db.count(0, MonitorStatus::kDifferentContent);
  db.count(0, MonitorStatus::kV6DownloadFailed);
  db.count(1, MonitorStatus::kV6Only);
  db.count_listed(0, 5);
  const RoundCounters& c0 = db.round_counters(0);
  EXPECT_EQ(c0.v4_only, 2u);
  EXPECT_EQ(c0.measured, 1u);
  EXPECT_EQ(c0.different_content, 1u);
  EXPECT_EQ(c0.download_failed, 1u);
  EXPECT_EQ(c0.dual, 3u);
  EXPECT_EQ(c0.listed, 5u);
  EXPECT_EQ(db.round_counters(1).v6_only, 1u);
  EXPECT_EQ(db.round_counters(99).listed, 0u);  // out of range = empty
}

TEST(ResultsDb, SeriesSortedByFinalize) {
  ResultsDb db;
  Observation a;
  a.site = 7;
  a.round = 5;
  a.status = MonitorStatus::kMeasured;
  Observation b = a;
  b.round = 2;
  db.add(a);
  db.add(b);
  db.finalize();
  const SiteSeries series = db.series(7);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].round, 2u);
  EXPECT_EQ(series[1].round, 5u);
  EXPECT_EQ(series[0].site, 7u);
  EXPECT_EQ(series[1].status, MonitorStatus::kMeasured);
  EXPECT_TRUE(db.series(8).empty());
  EXPECT_EQ(db.num_sites(), 1u);
  ASSERT_EQ(db.site_ids().size(), 1u);
  EXPECT_EQ(db.site_ids()[0], 7u);
}

TEST(ResultsDb, CsvContainsObservations) {
  ResultsDb db;
  Observation o;
  o.site = 3;
  o.round = 1;
  o.status = MonitorStatus::kMeasured;
  o.v4_speed_kBps = 50.0f;
  o.v6_speed_kBps = 45.0f;
  o.v4_origin = 12;
  o.v6_origin = 12;
  o.v4_path = db.paths().intern({5, 12});
  o.v6_path = db.paths().intern({6, 12});
  db.add(o);
  db.finalize();
  const std::string csv = db.to_csv();
  EXPECT_NE(csv.find("3,1,measured,50,45"), std::string::npos);
  EXPECT_NE(csv.find("AS5 AS12"), std::string::npos);
}

// W6D mini-rounds share one round number; a half-hourly day is 48 rows
// per (site, round), and the W6D analysis (mean, step detection) reads
// them in series order, so finalize() must keep their ingest order.
TEST(ResultsDb, EqualRoundRowsKeepIngestOrder) {
  ResultsDb db;
  Observation o;
  o.site = 4;
  o.round = 3;
  o.status = MonitorStatus::kMeasured;
  constexpr int kRows = 20;
  for (int i = 0; i < kRows; ++i) {
    o.v4_speed_kBps = static_cast<float>(i + 1);
    db.add(o);
  }
  db.finalize();
  const SiteSeries series = db.series(4);
  ASSERT_EQ(series.size(), static_cast<std::size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(series[static_cast<std::size_t>(i)].v4_speed_kBps, static_cast<float>(i + 1))
        << "row " << i;
  }
  std::istringstream csv(db.to_csv());
  std::string line;
  std::getline(csv, line);  // header
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line.rfind("4,3,measured," + std::to_string(i + 1) + ",", 0), 0u) << line;
  }
  EXPECT_FALSE(std::getline(csv, line));
}

TEST(ResultsDb, SeriesOfAbsentSiteIsEmpty) {
  ResultsDb db;
  Observation o;
  for (const std::uint32_t site : {5u, 100u, 0xfffffff0u}) {
    o.site = site;
    db.add(o);
  }
  db.finalize();
  EXPECT_EQ(db.site_ids(), (std::vector<std::uint32_t>{5u, 100u, 0xfffffff0u}));
  for (const std::uint32_t site : {5u, 100u, 0xfffffff0u}) {
    ASSERT_EQ(db.series(site).size(), 1u) << site;
    EXPECT_EQ(db.series(site)[0].site, site);
  }
  for (const std::uint32_t absent : {0u, 4u, 6u, 50u, 101u, 0xffffffefu, 0xffffffffu}) {
    EXPECT_TRUE(db.series(absent).empty()) << absent;
  }
}

#if V6MON_CONTRACT_LEVEL >= 1

TEST(ResultsDb, IngestAfterFinalizeIsContractError) {
  ResultsDb db;
  Observation o;
  db.add(o);
  db.finalize();
  EXPECT_THROW(db.add(o), ContractError);
  const std::vector<Observation> batch{o};
  EXPECT_THROW(db.merge_rows(batch), ContractError);
  EXPECT_THROW(db.finalize(), ContractError);
  EXPECT_EQ(db.series(0).size(), 1u);  // the rejected rows never landed
}

TEST(ResultsDb, ReadsBeforeFinalizeAreContractErrors) {
  ResultsDb db;
  db.add(Observation{});
  EXPECT_THROW((void)db.series(0), ContractError);
  std::ostringstream out;
  EXPECT_THROW(db.write_csv(out), ContractError);
  EXPECT_TRUE(out.str().empty());
}

#endif  // V6MON_CONTRACT_LEVEL >= 1

// --- Observation CSV byte format --------------------------------------------

constexpr const char* kCsvHeader =
    "site,round,status,v4_speed_kBps,v6_speed_kBps,v4_samples,v6_samples,"
    "v4_origin,v6_origin,v4_path,v6_path\n";

/// Independent oracle for the dump format: every field through a default
/// `std::ostream <<` (floats at the stream's default `%.6g`) and paths
/// through an ostringstream, exactly as the dump was first specified.
std::string stream_oracle_csv(const PathRegistry& paths,
                              const std::vector<Observation>& rows) {
  auto path_text = [&paths](PathId id) -> std::string {
    if (id == kNoPath) return "-";
    const std::vector<topo::Asn>& p = paths.path(id);
    if (p.empty()) return "(local)";
    std::ostringstream s;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (i) s << ' ';
      s << "AS" << p[i];
    }
    return s.str();
  };
  std::ostringstream out;
  out << kCsvHeader;
  for (const Observation& o : rows) {
    out << o.site << ',' << o.round << ',' << monitor_status_name(o.status) << ','
        << o.v4_speed_kBps << ',' << o.v6_speed_kBps << ',' << o.v4_samples << ','
        << o.v6_samples << ',';
    if (o.v4_origin != topo::kNoAs) out << o.v4_origin;
    out << ',';
    if (o.v6_origin != topo::kNoAs) out << o.v6_origin;
    out << ',' << path_text(o.v4_path) << ',' << path_text(o.v6_path) << '\n';
  }
  return out.str();
}

std::vector<std::string> csv_lines(const std::string& csv) {
  std::vector<std::string> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void expect_same_rows(const std::string& actual, const std::string& expected) {
  ASSERT_FALSE(actual.empty());
  EXPECT_EQ(actual.back(), '\n');
  const std::vector<std::string> a = csv_lines(actual);
  const std::vector<std::string> e = csv_lines(expected);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], e[i]) << "row " << i;
  }
  EXPECT_EQ(actual, expected);
}

/// Floats across every `%g` regime boundary: signed zero, denormals,
/// the fixed/scientific switch at 1e-4 and 1e6, rounding carries into a
/// new exponent, the float range ends, and the non-finite values.
std::vector<float> regime_floats() {
  using lim = std::numeric_limits<float>;
  return {0.0f,        -0.0f,        lim::denorm_min(), -lim::denorm_min(),
          lim::min(),  1e-5f,        9.999995e-5f,      0.0001f,
          0.00012345f, 1.0f,         45.0f,             0.1f,
          123456.0f,   999999.5f,    999999.4f,         1e6f,
          1234567.0f,  3.4e38f,      lim::max(),        -273.15f,
          lim::infinity(), -lim::infinity(), lim::quiet_NaN(), -lim::quiet_NaN()};
}

constexpr MonitorStatus kAllStatuses[] = {
    MonitorStatus::kDnsFailed,         MonitorStatus::kV4Only,
    MonitorStatus::kV6Only,            MonitorStatus::kV4DownloadFailed,
    MonitorStatus::kV6DownloadFailed,  MonitorStatus::kDifferentContent,
    MonitorStatus::kMeasured};

/// A deterministic spread of rows over every field's edge values, plus
/// `random_rows` rows of arbitrary float bit patterns (NaN payloads
/// included) — enough bytes that the writer's buffer spills many times
/// and rows straddle its boundaries. Sites ascend with insertion order.
std::vector<Observation> edge_rows(PathRegistry& paths, std::size_t random_rows) {
  const std::vector<float> floats = regime_floats();
  const PathId path_ids[] = {kNoPath, paths.intern({}), paths.intern({7}),
                             paths.intern({1, 22, 333, 4444, 4294967294u})};
  const topo::Asn origins[] = {topo::kNoAs, 0, 65535, topo::kNoAs - 1};
  const std::uint16_t samples[] = {0, 1, 9, 65535};
  const std::uint32_t rounds[] = {0, 7, 0xfffffffeu, 0xffffffffu};

  std::vector<Observation> rows;
  std::uint64_t bits = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < floats.size() * floats.size() + random_rows; ++i) {
    Observation o;
    o.site = static_cast<std::uint32_t>(i / 3);
    o.round = rounds[i % 4];
    o.status = kAllStatuses[i % 7];
    if (i < floats.size() * floats.size()) {
      o.v4_speed_kBps = floats[i / floats.size()];
      o.v6_speed_kBps = floats[i % floats.size()];
    } else {
      bits = bits * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto hi = static_cast<std::uint32_t>(bits >> 32);
      const auto lo = static_cast<std::uint32_t>(bits);
      std::memcpy(&o.v4_speed_kBps, &hi, sizeof hi);
      std::memcpy(&o.v6_speed_kBps, &lo, sizeof lo);
    }
    o.v4_samples = samples[i % 4];
    o.v6_samples = samples[(i / 4) % 4];
    o.v4_origin = origins[i % 4];
    o.v6_origin = origins[(i + 1) % 4];
    o.v4_path = path_ids[i % 4];
    o.v6_path = path_ids[(i / 5) % 4];
    rows.push_back(o);
  }
  // One path longer than any buffer block.
  std::vector<topo::Asn> huge(7000);
  for (std::size_t i = 0; i < huge.size(); ++i) {
    huge[i] = topo::kNoAs - 1 - static_cast<topo::Asn>(i);
  }
  rows[rows.size() / 2].v6_path = paths.intern(huge);
  return rows;
}

TEST(ResultsCsv, FinalizedDumpMatchesStreamOracle) {
  ResultsDb db;
  for (const Observation& o : edge_rows(db.paths(), 20'000)) db.add(o);
  db.finalize();
  // The oracle reads rows back in the store's own (site, round) order.
  std::vector<Observation> rows;
  for (const std::uint32_t site : db.site_ids()) {
    const SiteSeries s = db.series(site);
    for (std::size_t i = 0; i < s.size(); ++i) rows.push_back(s[i]);
  }
  const std::string csv = db.to_csv();
  EXPECT_GT(csv.size(), std::size_t{1} << 20);  // many buffer blocks
  expect_same_rows(csv, stream_oracle_csv(db.paths(), rows));
}

TEST(ResultsCsv, TopSiteIdsDumpMatchesStreamOracle) {
  // The store indexes only the sites it holds, so the largest uint32
  // site ids finalize and dump like any other. Many rows share one
  // (site, round): the dump keeps them in insertion order.
  ResultsDb db;
  std::vector<Observation> rows = edge_rows(db.paths(), 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].site = 0xffffffffu - static_cast<std::uint32_t>(i % 5);
  }
  for (const Observation& o : rows) db.add(o);
  db.finalize();
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Observation& a, const Observation& b) {
                     return a.site != b.site ? a.site < b.site : a.round < b.round;
                   });
  expect_same_rows(db.to_csv(), stream_oracle_csv(db.paths(), rows));
}

TEST(ResultsCsv, EmptyStoreWritesHeaderOnly) {
  ResultsDb db;
  db.finalize();
  EXPECT_EQ(db.to_csv(), kCsvHeader);
  EXPECT_EQ(db.num_sites(), 0u);
  EXPECT_TRUE(db.series(0).empty());
}

/// Accepts `limit` bytes, then refuses everything — a disk that fills up
/// partway through a dump.
class FillingStreambuf : public std::streambuf {
 public:
  explicit FillingStreambuf(std::size_t limit) : limit_(limit) {}
  std::size_t accepted = 0;

 protected:
  int overflow(int c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const auto take = std::min<std::size_t>(static_cast<std::size_t>(n), limit_ - accepted);
    accepted += take;
    return static_cast<std::streamsize>(take);
  }

 private:
  std::size_t limit_;
};

TEST(ResultsCsv, MidDumpStreamFailureThrows) {
  ResultsDb db;
  for (const Observation& o : edge_rows(db.paths(), 20'000)) db.add(o);
  db.finalize();
  const std::size_t full_size = db.to_csv().size();
  const std::size_t limit = 300'000;  // several buffer blocks in
  ASSERT_GT(full_size, 4 * limit);
  FillingStreambuf buf(limit);
  std::ostream out(&buf);
  EXPECT_THROW(db.write_csv(out), IoError);
  EXPECT_EQ(buf.accepted, limit);
}

// --- Monitor pipeline on a small world -----------------------------------

struct SmallWorld {
  scenario::WorldSpec spec;
  core::World world;
  SmallWorld() {
    spec.seed = 99;
    spec.topology.num_tier1 = 4;
    spec.topology.num_transit = 30;
    spec.topology.num_stub = 150;
    spec.catalog.initial_sites = 3000;
    spec.catalog.churn_per_round = 20;
    spec.catalog.num_rounds = 10;
    spec.catalog.dns_cache_sites = 200;
    spec.catalog.adoption = {0.5, 0.4, 0.3, 0.2, 0.15, 0.12};  // dense adoption
    spec.w6d_round = 8;
    spec.vantage_points = {
        {.name = "A",
         .type = core::VantagePoint::Type::kAcademic,
         .region = topo::Region::kNorthAmerica,
         .start_round = 0,
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = true,
         .num_v4_providers = 2,
         .v6_mode = scenario::V6UplinkMode::kSeparateProvider},
        {.name = "B",
         .type = core::VantagePoint::Type::kCommercial,
         .region = topo::Region::kEurope,
         .start_round = 2,
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = false,
         .num_v4_providers = 1,
         .v6_mode = scenario::V6UplinkMode::kSameProviders},
    };
    world = scenario::build_world(spec);
  }
};

SmallWorld& small_world() {
  static SmallWorld w;
  return w;
}

TEST(Monitor, V4OnlySiteClassified) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[0];
  Monitor mon(w, vp, {});

  const web::Site* v4only = nullptr;
  for (const web::Site& s : w.catalog.sites()) {
    if (s.v6_from_round == web::kNever) {
      v4only = &s;
      break;
    }
  }
  ASSERT_NE(v4only, nullptr);
  PathRegistry paths;
  const auto obs = mon.monitor_site(*v4only, 0, {}, util::Rng(2), paths);
  EXPECT_EQ(obs.status, MonitorStatus::kV4Only);
}

TEST(Monitor, DualStackSiteMeasured) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[1];  // full-parity VP
  Monitor mon(w, vp, {});
  PathRegistry paths;

  int measured = 0, examined = 0;
  for (const web::Site& s : w.catalog.sites()) {
    if (!s.dual_stack_at(5) || s.v6_page_ratio != 1.0f) continue;
    if (++examined > 40) break;
    const auto obs = mon.monitor_site(s, 5, {}, util::Rng(1000 + s.id), paths);
    if (obs.status == MonitorStatus::kMeasured) {
      ++measured;
      EXPECT_GT(obs.v4_speed_kBps, 0.0f);
      EXPECT_GT(obs.v6_speed_kBps, 0.0f);
      EXPECT_GE(obs.v4_samples, 3u);
      EXPECT_NE(obs.v4_origin, topo::kNoAs);
      EXPECT_NE(obs.v6_origin, topo::kNoAs);
      EXPECT_NE(obs.v4_path, kNoPath);
      EXPECT_NE(obs.v6_path, kNoPath);
    }
  }
  EXPECT_GT(measured, 10);
}

TEST(Monitor, DifferentContentDetected) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[1];
  MonitorConfig cfg;
  cfg.download.failure_prob = 0.0;
  Monitor mon(w, vp, cfg);
  PathRegistry paths;

  const web::Site* diff = nullptr;
  for (const web::Site& s : w.catalog.sites()) {
    if (s.dual_stack_at(5) && s.v6_page_ratio > 1.06f) {
      diff = &s;
      break;
    }
  }
  ASSERT_NE(diff, nullptr) << "catalog generated no different-content site";
  const auto obs = mon.monitor_site(*diff, 5, {}, util::Rng(3), paths);
  EXPECT_EQ(obs.status, MonitorStatus::kDifferentContent);
}

TEST(Monitor, DeterministicGivenSameRng) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[1];
  Monitor mon(w, vp, {});
  PathRegistry paths;

  const web::Site* dual = nullptr;
  for (const web::Site& s : w.catalog.sites()) {
    if (s.dual_stack_at(5)) {
      dual = &s;
      break;
    }
  }
  ASSERT_NE(dual, nullptr);
  const auto a = mon.monitor_site(*dual, 5, {}, util::Rng(42), paths);
  const auto b = mon.monitor_site(*dual, 5, {}, util::Rng(42), paths);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.v4_speed_kBps, b.v4_speed_kBps);
  EXPECT_EQ(a.v6_speed_kBps, b.v6_speed_kBps);
}

TEST(Monitor, SeparateProviderVpYieldsDivergentPaths) {
  const auto& w = small_world().world;
  const VantagePoint& penn_like = w.vantage_points[0];
  Monitor mon(w, penn_like, {});
  PathRegistry paths;

  int same = 0, diff = 0;
  for (const web::Site& s : w.catalog.sites()) {
    if (!s.dual_stack_at(5) || s.different_location()) continue;
    const auto obs = mon.monitor_site(s, 5, {}, util::Rng(77 + s.id), paths);
    if (obs.status != MonitorStatus::kMeasured) continue;
    if (obs.v4_origin != obs.v6_origin) continue;
    if (obs.v4_path == obs.v6_path) ++same;
    else ++diff;
    if (same + diff > 120) break;
  }
  EXPECT_GT(diff, same * 3) << "separate-provider VP should be DP-dominated";
}

TEST(Campaign, EndToEndSmallWorld) {
  const auto& w = small_world().world;
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.threads = 4;
  cfg.w6d_mini_rounds = 3;
  Campaign campaign(w, cfg);
  campaign.run();
  campaign.run_w6d();
  campaign.finalize();

  const ResultsDb& db = campaign.results(0);
  // Round counters must cover the whole listed population.
  const RoundCounters& c = db.round_counters(5);
  EXPECT_EQ(c.listed, c.v4_only + c.v6_only + c.dual + c.dns_failed);
  EXPECT_GT(c.dual, 0u);
  EXPECT_GT(c.measured, 0u);
  // VP B starts at round 2: no round-0/1 data.
  EXPECT_EQ(campaign.results(1).round_counters(0).listed, 0u);
  EXPECT_GT(campaign.results(1).round_counters(2).listed, 0u);
  // W6D run produced data for both VPs.
  EXPECT_GT(campaign.w6d_results(0).num_sites(), 0u);
  EXPECT_GT(campaign.w6d_results(1).num_sites(), 0u);
}

/// Everything a campaign exposes that the fast path must not change.
struct CampaignObservables {
  std::string csv;  ///< Every regular and W6D store's CSV, in VP order.
  std::vector<RoundCounters> rounds;  ///< Per VP, per round 0..num_rounds.
  std::vector<dns::Resolver::Stats> dns;
  std::vector<FallbackStats> fallback;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::uint64_t fast_path_sites = 0;
};

CampaignObservables run_for_observables(const World& world, WorldTimeline* timeline,
                                        CampaignConfig cfg) {
  auto& reg = obs::metrics();
  reg.reset();
  reg.set_enabled(true);
  const auto campaign = timeline != nullptr
                            ? std::make_unique<Campaign>(*timeline, std::move(cfg))
                            : std::make_unique<Campaign>(world, std::move(cfg));
  campaign->run();
  campaign->run_w6d();
  campaign->finalize();
  CampaignObservables out;
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    out.csv += campaign->results(vp).to_csv();
    out.csv += campaign->w6d_results(vp).to_csv();
    for (std::uint32_t r = 0; r <= world.num_rounds; ++r) {
      out.rounds.push_back(campaign->results(vp).round_counters(r));
    }
    out.dns.push_back(campaign->dns_stats(vp));
    out.fallback.push_back(campaign->fallback_stats(vp));
  }
  for (const char* name :
       {"dns.queries", "dns.timeouts", "monitor.status.dns-failed", "monitor.status.v4-only",
        "monitor.status.v6-only", "monitor.status.v4-download-failed",
        "monitor.status.v6-download-failed", "monitor.status.different-content",
        "monitor.status.measured"}) {
    out.counters.emplace_back(name, reg.counter_value(name));
  }
  out.fast_path_sites = reg.counter_value("campaign.fast_path_sites");
  reg.set_enabled(false);
  reg.reset();
  return out;
}

void expect_same_round_counters(const RoundCounters& a, const RoundCounters& b) {
  EXPECT_EQ(a.listed, b.listed);
  EXPECT_EQ(a.v4_only, b.v4_only);
  EXPECT_EQ(a.v6_only, b.v6_only);
  EXPECT_EQ(a.dual, b.dual);
  EXPECT_EQ(a.dns_failed, b.dns_failed);
  EXPECT_EQ(a.measured, b.measured);
  EXPECT_EQ(a.different_content, b.different_content);
  EXPECT_EQ(a.download_failed, b.download_failed);
}

void expect_same_fallback(const FallbackStats& a, const FallbackStats& b) {
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.user_success, b.user_success);
  EXPECT_EQ(a.used_v6, b.used_v6);
  EXPECT_EQ(a.fell_back, b.fell_back);
  EXPECT_EQ(a.both_failed, b.both_failed);
  EXPECT_EQ(a.v6_timeout, b.v6_timeout);
  EXPECT_EQ(a.v6_reset, b.v6_reset);
  EXPECT_EQ(a.v6_noroute, b.v6_noroute);
  EXPECT_EQ(a.added_latency_us, b.added_latency_us);
  EXPECT_EQ(a.user_latency_us, b.user_latency_us);
}

// The fast path settles sites without an AAAA record in the round scan
// (no DNS loss: v4-only; both queries lost: dns-failed). Sweep DNS loss
// from none through total, on frozen and evolving worlds, and require
// every observable to match the full pipeline.
TEST(Campaign, FastPathMatchesFullPipeline) {
  const SmallWorld& small = small_world();
  scenario::WorldSpec evolving_spec = small.spec;
  evolving_spec.evolution.enabled = true;
  evolving_spec.evolution.delta_rate = 4.0;
  evolving_spec.evolution.epoch_interval = 2;
  evolving_spec.evolution.max_as_fraction = 0.05;
  evolving_spec.evolution.depletion_round = 4;
  for (const double timeout_prob : {0.0, 0.02, 0.3, 1.0}) {
    for (const bool evolving : {false, true}) {
      SCOPED_TRACE(testing::Message() << "timeout_prob=" << timeout_prob
                                      << " evolving=" << evolving);
      CampaignConfig cfg;
      cfg.seed = 7;
      cfg.threads = 2;
      cfg.w6d_mini_rounds = 2;
      cfg.monitor.dns.timeout_prob = timeout_prob;
      cfg.monitor.fallback = FallbackPolicy::kSequential;
      const auto run = [&](bool fast_path) {
        cfg.fast_path = fast_path;
        if (!evolving) return run_for_observables(small.world, nullptr, cfg);
        WorldTimeline timeline = scenario::build_timeline(evolving_spec);
        EXPECT_FALSE(timeline.pending_epoch_rounds().empty());
        return run_for_observables(timeline.world(), &timeline, cfg);
      };
      const CampaignObservables fast = run(true);
      const CampaignObservables full = run(false);
      EXPECT_GT(fast.fast_path_sites, 0u);
      EXPECT_EQ(full.fast_path_sites, 0u);
      EXPECT_EQ(fast.csv, full.csv);
      ASSERT_EQ(fast.rounds.size(), full.rounds.size());
      for (std::size_t i = 0; i < fast.rounds.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "round counters #" << i);
        expect_same_round_counters(fast.rounds[i], full.rounds[i]);
      }
      ASSERT_EQ(fast.dns.size(), full.dns.size());
      for (std::size_t vp = 0; vp < fast.dns.size(); ++vp) {
        SCOPED_TRACE(testing::Message() << "vp=" << vp);
        EXPECT_GT(fast.dns[vp].queries, 0u);
        EXPECT_EQ(fast.dns[vp].queries, full.dns[vp].queries);
        EXPECT_EQ(fast.dns[vp].timeouts, full.dns[vp].timeouts);
        expect_same_fallback(fast.fallback[vp], full.fallback[vp]);
      }
      EXPECT_EQ(fast.counters, full.counters);
    }
  }
}

// The round's work list counts most listed sites without visiting them
// (per-round prefix sums) and walks only candidates. Sweep seeds, frozen
// and evolving worlds, DNS loss, the fallback policy, the fast path and
// the thread count over a world with one supplement and one plain
// vantage point, and hold every (VP, round) to a brute-force count over
// the catalog. The fast-path runs drive the rounds one by one; run()
// drives the full-pipeline runs. W6D follows the rounds, and each VP's
// DNS totals are held to an independent recount of every site decision's
// queries and of the timeouts its DNS stream draws. Every filled
// resolved-site row carries a world epoch the timeline has reached, and
// a slot's stamp never goes back: checked after every round of the
// fast-path runs and after run() and W6D of the others.
TEST(Campaign, WorkListInvariantSweep) {
  const auto tiny_spec = [](std::uint64_t seed, bool evolving) {
    scenario::WorldSpec spec = small_world().spec;
    spec.seed = seed;
    spec.catalog.initial_sites = 600;
    spec.catalog.churn_per_round = 8;
    spec.catalog.dns_cache_sites = 80;
    spec.catalog.num_rounds = 8;
    spec.w6d_round = 5;
    spec.evolution.enabled = evolving;
    spec.evolution.delta_rate = 4.0;
    spec.evolution.epoch_interval = 2;
    spec.evolution.max_as_fraction = 0.05;
    spec.evolution.depletion_round = 4;
    return spec;
  };
  struct Run {
    std::vector<RoundCounters> rounds;  ///< Per VP, per round.
    std::vector<dns::Resolver::Stats> dns;
  };
  constexpr std::size_t kMiniRounds = 2;
  // Queries one site decision's DNS stream loses.
  const auto lost_queries = [](const util::Rng& root, double timeout_prob,
                               std::uint64_t salt, std::uint32_t site_id) {
    util::Rng dns(root.child_seed("dns", salt ^ site_id));
    std::uint64_t lost = 0;
    for (int query = 0; query < 2; ++query) {
      lost += timeout_prob > 0.0 && dns.chance(timeout_prob);
    }
    return lost;
  };
  // stamps[vp][slot]: the world epoch the slot's row last carried.
  const auto check_epoch_stamps = [](const Campaign& campaign, std::size_t num_vps,
                                     std::uint32_t current_epoch,
                                     std::vector<std::vector<std::uint32_t>>& stamps) {
    stamps.resize(num_vps);
    for (std::size_t v = 0; v < num_vps; ++v) {
      const ResolvedSiteTable& table = campaign.monitor(v).resolved_sites();
      stamps[v].resize(table.size(), 0);
      for (std::uint32_t slot = 0; slot < table.size(); ++slot) {
        if (!table.filled(slot)) continue;
        const std::uint32_t stamp = table.world_epoch(slot);
        EXPECT_LE(stamp, current_epoch) << "vp " << v << " slot " << slot;
        EXPECT_GE(stamp, stamps[v][slot]) << "vp " << v << " slot " << slot;
        stamps[v][slot] = stamp;
      }
    }
  };
  for (const std::uint64_t seed : {3u, 17u}) {
    for (const bool evolving : {false, true}) {
      const scenario::WorldSpec spec = tiny_spec(seed, evolving);
      const World frozen = scenario::build_world(spec);
      // The first epoch that grants an AAAA record: the early cases apply
      // it before the first round builds the work-list index.
      std::uint32_t gain_round = web::kNever;
      if (evolving) {
        WorldTimeline probe = scenario::build_timeline(spec);
        for (const WorldChangeSummary& s : probe.advance_to(
                 static_cast<std::uint32_t>(spec.catalog.num_rounds))) {
          if (!s.sites_gained_aaaa.empty()) {
            gain_round = s.round;
            break;
          }
        }
        ASSERT_NE(gain_round, web::kNever) << "seed " << seed;
      }
      for (const double timeout_prob : {0.0, 0.02, 0.3, 1.0}) {
        for (const bool early : {false, true}) {
          if (early && !evolving) continue;
          for (const FallbackPolicy fallback :
               {FallbackPolicy::kNone, FallbackPolicy::kSequential}) {
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
              std::vector<Run> runs;
              for (const bool fast_path : {true, false}) {
                SCOPED_TRACE(testing::Message()
                             << "seed=" << seed << " evolving=" << evolving
                             << " timeout_prob=" << timeout_prob << " early=" << early
                             << " fallback=" << static_cast<int>(fallback)
                             << " threads=" << threads << " fast_path=" << fast_path);
                CampaignConfig cfg;
                cfg.seed = seed;
                cfg.threads = threads;
                cfg.fast_path = fast_path;
                cfg.w6d_mini_rounds = kMiniRounds;
                cfg.monitor.dns.timeout_prob = timeout_prob;
                cfg.monitor.fallback = fallback;
                auto& reg = obs::metrics();
                reg.reset();
                reg.set_enabled(true);
                std::optional<WorldTimeline> timeline;
                if (evolving) timeline.emplace(scenario::build_timeline(spec));
                const World& world = evolving ? timeline->world() : frozen;
                auto campaign = evolving ? std::make_unique<Campaign>(*timeline, cfg)
                                         : std::make_unique<Campaign>(world, cfg);
                if (early) campaign->advance_world(gain_round);
                const std::size_t num_vps = world.vantage_points.size();
                const auto world_epoch = [&] {
                  return evolving ? timeline->current_epoch() : std::uint32_t{0};
                };
                std::vector<std::vector<std::uint32_t>> stamps;
                if (fast_path) {
                  // One (VP, round) at a time, so that each one's monitored and
                  // coin-settled sites can be held to a brute-force count: the
                  // monitor runs exactly the dual-stack sites that lose no DNS
                  // query, and every one-loss site settles by its coin.
                  const util::Rng root(seed);
                  std::vector<std::uint64_t> lost(world.catalog.size());
                  for (const web::Site& s : world.catalog.sites()) {
                    lost[s.id] = lost_queries(root, timeout_prob, 0, s.id);
                  }
                  for (std::uint32_t r = 0; r <= world.num_rounds; ++r) {
                    campaign->advance_world(r);
                    for (std::size_t v = 0; v < world.vantage_points.size(); ++v) {
                      const VantagePoint& vp = world.vantage_points[v];
                      const std::uint64_t monitored_before =
                          reg.counter_value("campaign.sites_monitored");
                      const std::uint64_t coins_before =
                          reg.counter_value("campaign.fast_path_coin_sites");
                      campaign->run_round(v, r);
                      std::uint64_t dual_clean = 0;
                      std::uint64_t one_loss = 0;
                      if (r >= vp.start_round) {
                        for (const web::Site& s : world.catalog.sites()) {
                          if (!s.in_list_at(r) ||
                              (s.from_dns_cache && !vp.uses_dns_cache_supplement)) {
                            continue;
                          }
                          dual_clean += lost[s.id] == 0 && s.dual_stack_at(r);
                          one_loss += lost[s.id] == 1;
                        }
                      }
                      EXPECT_EQ(reg.counter_value("campaign.sites_monitored") -
                                    monitored_before,
                                dual_clean)
                          << "vp " << v << " round " << r;
                      EXPECT_EQ(reg.counter_value("campaign.fast_path_coin_sites") -
                                    coins_before,
                                one_loss)
                          << "vp " << v << " round " << r;
                    }
                    check_epoch_stamps(*campaign, num_vps, world_epoch(), stamps);
                  }
                } else {
                  campaign->run();
                  check_epoch_stamps(*campaign, num_vps, world_epoch(), stamps);
                }
                campaign->run_w6d();
                check_epoch_stamps(*campaign, num_vps, world_epoch(), stamps);
                campaign->finalize();

                // The W6D site decisions of one participating VP, and the
                // queries they lose; every VP draws the same streams.
                const util::Rng root(seed);
                std::uint64_t w6d_sites = 0;
                std::uint64_t w6d_lost = 0;
                for (const web::Site& s : world.catalog.sites()) {
                  if (!s.w6d_participant) continue;
                  w6d_sites += kMiniRounds;
                  for (std::size_t mini = 0; mini < kMiniRounds; ++mini) {
                    w6d_lost += lost_queries(root, timeout_prob, 0x60d00000ULL + mini, s.id);
                  }
                }
                EXPECT_GT(w6d_sites, 0u);

                Run& run = runs.emplace_back();
                std::uint64_t listed_sum = 0;
                std::uint64_t w6d_sum = 0;
                for (std::size_t v = 0; v < world.vantage_points.size(); ++v) {
                  const VantagePoint& vp = world.vantage_points[v];
                  std::uint64_t vp_listed = 0;
                  std::uint64_t vp_lost = 0;
                  const ResultsDb& db = campaign->results(v);
                  // At most one row per (site, round): no site is queued twice.
                  std::vector<std::uint64_t> rows(world.num_rounds + 1, 0);
                  for (const std::uint32_t site : db.site_ids()) {
                    const SiteSeries series = db.series(site);
                    for (std::size_t i = 0; i < series.size(); ++i) {
                      ++rows.at(series[i].round);
                      if (i > 0) {
                        EXPECT_LT(series[i - 1].round, series[i].round) << site;
                      }
                    }
                  }
                  for (std::uint32_t r = 0; r <= world.num_rounds; ++r) {
                    std::uint64_t expected = 0;
                    if (r >= vp.start_round) {
                      for (const web::Site& s : world.catalog.sites()) {
                        if (s.in_list_at(r) &&
                            (!s.from_dns_cache || vp.uses_dns_cache_supplement)) {
                          ++expected;
                          vp_lost += lost_queries(root, timeout_prob, 0, s.id);
                        }
                      }
                    }
                    const RoundCounters& c = db.round_counters(r);
                    EXPECT_EQ(c.listed, expected) << "vp " << v << " round " << r;
                    EXPECT_EQ(c.v4_only + c.v6_only + c.dual + c.dns_failed, c.listed)
                        << "vp " << v << " round " << r;
                    EXPECT_LE(rows[r], c.listed) << "vp " << v << " round " << r;
                    vp_listed += c.listed;
                    run.rounds.push_back(c);
                  }
                  const std::uint64_t vp_w6d = vp.start_round <= world.w6d_round ? w6d_sites : 0;
                  if (vp_w6d != 0) vp_lost += w6d_lost;
                  const dns::Resolver::Stats dns = campaign->dns_stats(v);
                  EXPECT_EQ(dns.queries, 2 * (vp_listed + vp_w6d)) << "vp " << v;
                  EXPECT_EQ(dns.timeouts, vp_lost) << "vp " << v;
                  EXPECT_EQ(dns.cache_hits, 0u) << "vp " << v;
                  run.dns.push_back(dns);
                  listed_sum += vp_listed;
                  w6d_sum += vp_w6d;
                }
                EXPECT_GT(listed_sum, 0u);
                EXPECT_EQ(reg.counter_value("campaign.sites_monitored") +
                              reg.counter_value("campaign.fast_path_sites"),
                          listed_sum + w6d_sum);
                EXPECT_EQ(reg.counter_value("dns.queries"), 2 * (listed_sum + w6d_sum));
                reg.set_enabled(false);
                reg.reset();
              }
              // Settling a site is invisible: the fast path's counters equal
              // the full pipeline's at every (VP, round).
              SCOPED_TRACE(testing::Message() << "seed=" << seed << " evolving=" << evolving
                                              << " timeout_prob=" << timeout_prob
                                              << " early=" << early
                                              << " fallback=" << static_cast<int>(fallback)
                                              << " threads=" << threads);
              ASSERT_EQ(runs[0].rounds.size(), runs[1].rounds.size());
              for (std::size_t i = 0; i < runs[0].rounds.size(); ++i) {
                SCOPED_TRACE(testing::Message() << "round counters #" << i);
                expect_same_round_counters(runs[0].rounds[i], runs[1].rounds[i]);
              }
              for (std::size_t v = 0; v < runs[0].dns.size(); ++v) {
                EXPECT_EQ(runs[0].dns[v].queries, runs[1].dns[v].queries);
                EXPECT_EQ(runs[0].dns[v].timeouts, runs[1].dns[v].timeouts);
              }
            }
          }
        }
      }
    }
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  const auto& w = small_world().world;
  CampaignConfig one;
  one.seed = 11;
  one.threads = 1;
  CampaignConfig many = one;
  many.threads = 8;
  Campaign c1(w, one), c8(w, many);
  c1.run_round(1, 5);
  c8.run_round(1, 5);
  c1.finalize();
  c8.finalize();
  const ResultsDb& d1 = c1.results(1);
  const ResultsDb& d8 = c8.results(1);
  ASSERT_EQ(d1.site_ids(), d8.site_ids());
  for (const std::uint32_t site : d1.site_ids()) {
    const SiteSeries obs1 = d1.series(site);
    const SiteSeries obs8 = d8.series(site);
    ASSERT_EQ(obs1.size(), obs8.size());
    for (std::size_t i = 0; i < obs1.size(); ++i) {
      EXPECT_EQ(obs1[i].status, obs8[i].status);
      EXPECT_EQ(obs1[i].v4_speed_kBps, obs8[i].v4_speed_kBps);
      EXPECT_EQ(obs1[i].v6_speed_kBps, obs8[i].v6_speed_kBps);
    }
  }
}

TEST(Campaign, ObservationCsvBytesPinned) {
  // Every other CSV test compares one dump against another, which any
  // formatter change passes trivially. These digests pin the bytes
  // themselves: a change here is an output-format change.
  const auto& w = small_world().world;
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.threads = 2;
  cfg.w6d_mini_rounds = 3;
  Campaign campaign(w, cfg);
  campaign.run();
  campaign.run_w6d();
  campaign.finalize();
  std::string observations, w6d;
  for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
    observations += campaign.results(vp).to_csv();
    w6d += campaign.w6d_results(vp).to_csv();
  }
  EXPECT_GT(observations.size(), std::size_t{100'000});
  EXPECT_EQ(fnv1a64(observations), 0x46c16c4f47ace918ULL) << observations.size() << " bytes";
  EXPECT_EQ(fnv1a64(w6d), 0x351d3a5447e22b87ULL) << w6d.size() << " bytes";
}

// finalize() runs the stores in parallel. A store whose spool is gone
// must surface as an Error naming the first such store (VP order), not
// as a crash on a pool worker and not as whichever store failed first
// in time.
TEST(Campaign, FinalizeThrowsFirstFailingSpoolStore) {
  scenario::WorldSpec spec = small_world().spec;
  spec.vantage_points.push_back(spec.vantage_points.front());
  spec.vantage_points.back().name = "C";
  const World w = scenario::build_world(spec);
  ASSERT_EQ(w.vantage_points.size(), 3u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = ::testing::TempDir() + "/finalize_spool_t" +
                            std::to_string(threads) + "_" +
                            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir);
    CampaignConfig cfg;
    cfg.seed = 5;
    cfg.threads = threads;
    cfg.sink = SinkBackend::kSpool;
    cfg.spool_dir = dir;
    Campaign campaign(w, cfg);
    campaign.run();
    // Removing a spool file makes its replay fail: two stores fail, and
    // at threads = 4 vp2's may well fail first in time.
    std::filesystem::remove(dir + "/vp0.spool");
    std::filesystem::remove(dir + "/vp2.spool");
    try {
      campaign.finalize();
      ADD_FAILURE() << "finalize() ignored the missing spools";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("vp0.spool"), std::string::npos) << what;
    }
    std::filesystem::remove_all(dir);
  }
}

#if V6MON_CONTRACT_LEVEL >= 1

// run() checks finalize() on the calling thread, before any round runs on
// a pool worker: a contract violation thrown from inside a worker would
// terminate the process instead of reaching the caller.
TEST(Campaign, RunAfterFinalizeThrows) {
  const auto& w = small_world().world;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignConfig cfg;
    cfg.threads = threads;
    Campaign campaign(w, cfg);
    campaign.finalize();
    EXPECT_THROW(campaign.run(), ContractError);
    EXPECT_THROW(campaign.run_w6d(), ContractError);
  }
}

#endif  // V6MON_CONTRACT_LEVEL >= 1

TEST(Campaign, RejectsRoundCountAtMonitorKeyLimit) {
  // The per-site monitor stream key packs vp * kMaxCampaignRounds + round,
  // so round kMaxCampaignRounds at vp would reuse vp + 1's round-0 draws.
  World w = small_world().world;
  CampaignConfig cfg;
  cfg.threads = 1;
  w.num_rounds = kMaxCampaignRounds - 1;
  EXPECT_NO_THROW({ Campaign accepted(w, cfg); });
  w.num_rounds = kMaxCampaignRounds;
  try {
    Campaign rejected(w, cfg);
    ADD_FAILURE() << "num_rounds = " << w.num_rounds << " was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("4095"), std::string::npos) << e.what();
  }
}

// --- Resolved-site table and monitor_site's two read paths ---------------

TEST(ResolvedSiteTable, FindOnUnassignedKeyReturnsNoSlot) {
  ResolvedSiteTable table(4);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(0, 0), ResolvedSiteTable::kNoSlot);
  EXPECT_EQ(table.find(3, 1), ResolvedSiteTable::kNoSlot);
  EXPECT_EQ(table.find(4, 0), ResolvedSiteTable::kNoSlot);  // beyond the catalog

  web::Site site;
  site.id = 2;
  const std::uint32_t slot = table.assign(site, 1);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(2, 1), slot);
  EXPECT_EQ(table.find(2, 0), ResolvedSiteTable::kNoSlot);
  EXPECT_EQ(table.site_id(slot), 2u);
  EXPECT_FALSE(table.filled(slot));
}

#if V6MON_CONTRACT_LEVEL >= 1

TEST(ResolvedSiteTable, AssignRejectsDuplicateAndOutOfCatalogKeys) {
  ResolvedSiteTable table(4);
  web::Site site;
  site.id = 1;
  (void)table.assign(site, 0);
  EXPECT_THROW((void)table.assign(site, 0), ContractError);
  EXPECT_THROW((void)table.assign(site, 2), ContractError);
  site.id = 4;
  EXPECT_THROW((void)table.assign(site, 0), ContractError);
  EXPECT_EQ(table.size(), 1u);
}

// Hosting epochs are 0 and 1: find(s, 2) would otherwise read the key
// of (s + 1, 0).
TEST(ResolvedSiteTableDeathTest, FindRejectsHostingEpochAboveOne) {
  ResolvedSiteTable table(4);
  web::Site site;
  site.id = 2;
  (void)table.assign(site, 0);
  EXPECT_DEATH((void)table.find(1, 2), "hosting epoch must be 0 or 1");
}

#endif  // V6MON_CONTRACT_LEVEL >= 1

TEST(ResolvedSiteTable, FillStampsWorldEpochAndInvalidateAllowsRefill) {
  ResolvedSiteTable table(2);
  web::Site site;
  site.id = 1;
  const std::uint32_t slot = table.assign(site, 0);

  ResolvedSiteRow row;
  row.v4_addr = ip::Ipv4Address(0x0a000001u);
  row.gate = MonitorStatus::kV6DownloadFailed;
  table.fill(slot, row, 3);
  EXPECT_TRUE(table.filled(slot));
  EXPECT_EQ(table.world_epoch(slot), 3u);
  EXPECT_EQ(table.row(slot).v4_addr, row.v4_addr);
  EXPECT_EQ(table.row(slot).gate, MonitorStatus::kV6DownloadFailed);

  table.invalidate(slot);
  EXPECT_FALSE(table.filled(slot));
  row.gate = MonitorStatus::kMeasured;
  table.fill(slot, row, 5);
  EXPECT_TRUE(table.filled(slot));
  EXPECT_EQ(table.world_epoch(slot), 5u);
  EXPECT_EQ(table.row(slot).gate, MonitorStatus::kMeasured);
}

// The hash index against the slots it points at, after a frozen and an
// evolving campaign (relocated sites take hosting-epoch-1 keys, epochs
// grant AAAA records) at 1 and 4 threads: every (site, hosting epoch)
// key finds nothing or a slot of that site, no two keys share a slot,
// and the keys found are exactly the table's slots.
TEST(ResolvedSiteTable, IndexMatchesSlotsAfterCampaigns) {
  scenario::WorldSpec evolving_spec = small_world().spec;
  evolving_spec.evolution.enabled = true;
  evolving_spec.evolution.delta_rate = 4.0;
  evolving_spec.evolution.epoch_interval = 2;
  evolving_spec.evolution.max_as_fraction = 0.05;
  evolving_spec.evolution.depletion_round = 4;
  for (const bool evolving : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "evolving=" << evolving << " threads=" << threads);
      CampaignConfig cfg;
      cfg.seed = 7;
      cfg.threads = threads;
      std::optional<WorldTimeline> timeline;
      if (evolving) timeline.emplace(scenario::build_timeline(evolving_spec));
      const World& world = evolving ? timeline->world() : small_world().world;
      std::vector<std::uint32_t> v6_from;
      for (const web::Site& s : world.catalog.sites()) v6_from.push_back(s.v6_from_round);
      auto campaign = evolving ? std::make_unique<Campaign>(*timeline, cfg)
                               : std::make_unique<Campaign>(world, cfg);
      campaign->run();
      campaign->run_w6d();

      std::size_t relocated_keys = 0;
      std::size_t granted_keys = 0;
      for (std::size_t v = 0; v < world.vantage_points.size(); ++v) {
        SCOPED_TRACE(testing::Message() << "vp=" << v);
        const ResolvedSiteTable& table = campaign->monitor(v).resolved_sites();
        ASSERT_GT(table.size(), 0u);
        std::vector<bool> taken(table.size(), false);
        std::size_t found = 0;
        for (std::uint32_t id = 0; id < world.catalog.size(); ++id) {
          for (const std::uint8_t epoch : {std::uint8_t{0}, std::uint8_t{1}}) {
            const std::uint32_t slot = table.find(id, epoch);
            if (slot == ResolvedSiteTable::kNoSlot) continue;
            ASSERT_LT(slot, table.size()) << "site " << id;
            EXPECT_EQ(table.site_id(slot), id);
            EXPECT_FALSE(taken[slot]) << "slot " << slot << " found by two keys";
            taken[slot] = true;
            ++found;
            relocated_keys += epoch;
            granted_keys += world.catalog.site(id).v6_from_round != v6_from[id];
          }
        }
        EXPECT_EQ(found, table.size());
      }
      EXPECT_GT(relocated_keys, 0u) << "no relocated site took an epoch-1 slot";
      EXPECT_EQ(granted_keys > 0, evolving) << "AAAA grants and slots disagree";
    }
  }
}

void expect_same_observation(const Observation& a, const Observation& b) {
  EXPECT_EQ(a.site, b.site);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.v4_speed_kBps, b.v4_speed_kBps);
  EXPECT_EQ(a.v6_speed_kBps, b.v6_speed_kBps);
  EXPECT_EQ(a.v4_samples, b.v4_samples);
  EXPECT_EQ(a.v6_samples, b.v6_samples);
  EXPECT_EQ(a.v4_path, b.v4_path);
  EXPECT_EQ(a.v6_path, b.v6_path);
  EXPECT_EQ(a.v4_origin, b.v4_origin);
  EXPECT_EQ(a.v6_origin, b.v6_origin);
}

// A Monitor reading table rows (slots assigned, filled on the first call,
// reused on the second) and a Monitor without slots (every call resolves
// into its per-call row) must agree field for field, with and without the
// conn layer reading the rows' paths.
TEST(Monitor, TableRowsMatchPerCallResolution) {
  const World& w = small_world().world;
  constexpr std::uint32_t kRound = 5;
  std::vector<std::uint32_t> dual;
  for (const web::Site& s : w.catalog.sites()) {
    if (s.dual_stack_at(kRound)) dual.push_back(s.id);
  }
  ASSERT_GT(dual.size(), 100u);
  for (const FallbackPolicy policy : {FallbackPolicy::kNone, FallbackPolicy::kSequential}) {
    MonitorConfig cfg;
    cfg.fallback = policy;
    for (const VantagePoint& vp : w.vantage_points) {
      SCOPED_TRACE("vp=" + vp.name + " policy=" + std::to_string(static_cast<int>(policy)));
      Monitor cached(w, vp, cfg);
      Monitor uncached(w, vp, cfg);
      cached.assign_resolve_slots(dual, kRound);
      PathRegistry cached_paths, uncached_paths;
      for (const std::uint64_t pass : {0u, 1u}) {  // 0 fills the rows, 1 reuses them
        for (const std::uint32_t id : dual) {
          const web::Site& site = w.catalog.site(id);
          const std::uint64_t seed = (pass << 32) | id;
          const Observation a =
              cached.monitor_site(site, kRound, {}, util::Rng(seed), cached_paths);
          const Observation b =
              uncached.monitor_site(site, kRound, {}, util::Rng(seed), uncached_paths);
          SCOPED_TRACE("pass=" + std::to_string(pass) + " site=" + std::to_string(id));
          expect_same_observation(a, b);
        }
        std::size_t filled = 0;
        for (const std::uint32_t id : dual) {
          const std::uint32_t slot =
              cached.resolved_sites().find(id, w.catalog.site(id).hosting_epoch(kRound));
          ASSERT_NE(slot, ResolvedSiteTable::kNoSlot);
          if (cached.resolved_sites().filled(slot)) ++filled;
        }
        EXPECT_EQ(filled, dual.size());
      }
      EXPECT_EQ(uncached.resolved_sites().size(), 0u);
      const FallbackStats fa = cached.fallback_stats();
      const FallbackStats fb = uncached.fallback_stats();
      expect_same_fallback(fa, fb);
      EXPECT_EQ(fa.evaluated, policy == FallbackPolicy::kNone ? 0u : 2 * dual.size());
    }
  }
}

// Phase 1 answers from the catalog by site id. Hold it to the reference
// it replaced: a catalog resolver keyed by hostname
// (reference/dns_reference.h), seeded with the site's DNS stream and
// queried in the order of the query-order coin.
// Every site of the small world at every round (so across AAAA windows
// and relocations), for a regular and a W6D salt, from no DNS loss to
// total loss: the same answers, addresses, queries and timeouts.
TEST(Monitor, SiteKeyedDnsMatchesResolverReference) {
  const World& w = small_world().world;
  MonitorConfig cfg;
  cfg.min_downloads = 2;  // Phases 1 and 2 are under test, not the CI loop.
  cfg.max_downloads = 2;
  const util::Rng root(7);
  std::vector<std::uint32_t> all(w.catalog.size());
  for (std::uint32_t id = 0; id < all.size(); ++id) all[id] = id;
  for (const std::uint64_t salt : {std::uint64_t{0}, std::uint64_t{0x60d00003}}) {
    for (const double timeout_prob : {0.0, 0.02, 0.3, 1.0}) {
      SCOPED_TRACE(testing::Message() << "salt=" << salt << " timeout_prob=" << timeout_prob);
      Monitor mon(w, w.vantage_points[1], cfg);
      PathRegistry paths;
      std::uint64_t ref_queries = 0, ref_timeouts = 0, decisions = 0, timeouts = 0;
      std::uint64_t relocated_answers = 0, late_aaaa_answers = 0;
      for (std::uint32_t r = 0; r <= w.num_rounds; ++r) {
        mon.assign_resolve_slots(all, r);
        for (const web::Site& site : w.catalog.sites()) {
          const std::uint64_t seed = (std::uint64_t{r} << 32) | site.id;
          util::Rng coin(seed);
          const bool a_first = Monitor::a_query_first(coin);
          dns_ref::CatalogResolver ref(w.catalog, timeout_prob,
                                       root.child_seed("dns", salt ^ site.id));
          const std::string host = dns_ref::site_hostname(site.id);
          dns_ref::Answer a, aaaa;
          if (a_first) {
            a = ref.resolve(host, dns_ref::QueryType::kA, r);
            aaaa = ref.resolve(host, dns_ref::QueryType::kAaaa, r);
          } else {
            aaaa = ref.resolve(host, dns_ref::QueryType::kAaaa, r);
            a = ref.resolve(host, dns_ref::QueryType::kA, r);
          }
          ref_queries += ref.queries();
          ref_timeouts += ref.timeouts();
          EXPECT_NE(a.rcode, dns_ref::Rcode::kNxDomain);
          EXPECT_NE(aaaa.rcode, dns_ref::Rcode::kNxDomain);

          const QueryLoss loss = draw_query_loss(root, timeout_prob, salt, site.id);
          EXPECT_EQ(loss.timeouts(), ref.timeouts()) << "site " << site.id;
          ++decisions;
          timeouts += loss.timeouts();
          const Observation obs = mon.monitor_site(site, r, loss, util::Rng(seed), paths);
          const bool has_a = obs.status != MonitorStatus::kDnsFailed &&
                             obs.status != MonitorStatus::kV6Only;
          const bool has_aaaa = obs.status != MonitorStatus::kDnsFailed &&
                                obs.status != MonitorStatus::kV4Only;
          ASSERT_EQ(has_a, a.has_answers()) << "site " << site.id << " round " << r;
          ASSERT_EQ(has_aaaa, aaaa.has_answers()) << "site " << site.id << " round " << r;
          if (!has_a || !has_aaaa) continue;
          const std::uint32_t slot =
              mon.resolved_sites().find(site.id, site.hosting_epoch(r));
          ASSERT_NE(slot, ResolvedSiteTable::kNoSlot);
          ASSERT_TRUE(mon.resolved_sites().filled(slot));
          const ResolvedSiteRow& row = mon.resolved_sites().row(slot);
          EXPECT_EQ(row.v4_addr, *a.a) << "site " << site.id;
          EXPECT_EQ(row.v6_addr, *aaaa.aaaa) << "site " << site.id;
          relocated_answers += site.hosting_epoch(r);
          late_aaaa_answers += site.v6_from_round == r && r > 0;
        }
      }
      EXPECT_EQ(ref_queries, 2 * decisions);
      EXPECT_EQ(ref_timeouts, timeouts);
      if (timeout_prob == 0.0) {
        EXPECT_EQ(timeouts, 0u);
        EXPECT_GT(relocated_answers, 0u) << "no relocated site answered";
        EXPECT_GT(late_aaaa_answers, 0u) << "no site gained its AAAA mid-campaign";
      } else if (timeout_prob == 1.0) {
        EXPECT_EQ(timeouts, 2 * decisions);
      } else {
        EXPECT_GT(timeouts, 0u);
      }
    }
  }
}

// Every site's answers come from SiteCatalog::hosting_at, so a filled
// resolved-site row holds the catalog's addresses at every round of its
// hosting epoch: relocated sites move to their epoch-1 slot at the step
// round, and grant_aaaa rewrites only sites that had no AAAA. Check every
// filled row against hosting_at after every round, on the frozen small
// world (direct monitor_site calls) and on an evolving campaign.
TEST(Monitor, FilledRowsMatchHostingAtEveryRound) {
  const auto expect_rows_match = [](const Monitor& mon, const web::SiteCatalog& catalog,
                                    std::uint32_t round) {
    std::size_t filled = 0;
    for (const web::Site& site : catalog.sites()) {
      const std::uint32_t slot = mon.resolved_sites().find(site.id, site.hosting_epoch(round));
      if (slot == ResolvedSiteTable::kNoSlot || !mon.resolved_sites().filled(slot)) continue;
      ++filled;
      const web::Hosting h = catalog.hosting_at(site, round);
      const ResolvedSiteRow& row = mon.resolved_sites().row(slot);
      EXPECT_EQ(row.v4_addr, h.v4_addr) << "site " << site.id << " round " << round;
      EXPECT_EQ(row.v6_addr, h.v6_addr) << "site " << site.id << " round " << round;
    }
    return filled;
  };

  const World& w = small_world().world;
  std::size_t relocated = 0;
  for (const web::Site& s : w.catalog.sites()) {
    const web::Hosting* moved = w.catalog.relocation(s.id);
    relocated += moved != nullptr && moved->v4_as != s.v4_as && s.step_round <= w.num_rounds &&
                 s.dual_stack_at(s.step_round);
  }
  ASSERT_GT(relocated, 0u) << "small world has no relocated dual-stack site";
  MonitorConfig cfg;
  cfg.min_downloads = 2;
  cfg.max_downloads = 2;
  for (const VantagePoint& vp : w.vantage_points) {
    SCOPED_TRACE("vp=" + vp.name);
    Monitor mon(w, vp, cfg);
    PathRegistry paths;
    for (std::uint32_t r = 0; r <= w.num_rounds; ++r) {
      std::vector<std::uint32_t> dual;
      for (const web::Site& s : w.catalog.sites()) {
        if (s.dual_stack_at(r)) dual.push_back(s.id);
      }
      mon.assign_resolve_slots(dual, r);
      for (const std::uint32_t id : dual) {
        (void)mon.monitor_site(w.catalog.site(id), r, {},
                               util::Rng((std::uint64_t{r} << 32) | id), paths);
      }
      EXPECT_GT(expect_rows_match(mon, w.catalog, r), 0u) << "round " << r;
    }
  }

  scenario::WorldSpec spec = small_world().spec;
  spec.evolution.enabled = true;
  spec.evolution.delta_rate = 4.0;
  spec.evolution.epoch_interval = 2;
  spec.evolution.max_as_fraction = 0.05;
  spec.evolution.depletion_round = 4;
  WorldTimeline timeline = scenario::build_timeline(spec);
  CampaignConfig campaign_cfg;
  campaign_cfg.threads = 2;
  Campaign campaign(timeline, campaign_cfg);
  std::vector<std::uint32_t> v6_from;
  for (const web::Site& s : timeline.world().catalog.sites()) {
    v6_from.push_back(s.v6_from_round);
  }
  for (std::uint32_t r = 0; r <= timeline.world().num_rounds; ++r) {
    campaign.advance_world(r);
    for (std::size_t v = 0; v < timeline.world().vantage_points.size(); ++v) {
      campaign.run_round(v, r);
      const std::size_t filled =
          expect_rows_match(campaign.monitor(v), timeline.world().catalog, r);
      if (r >= timeline.world().vantage_points[v].start_round) {
        EXPECT_GT(filled, 0u) << "vp " << v << " round " << r;
      }
    }
  }
  std::size_t granted = 0;
  for (const web::Site& s : timeline.world().catalog.sites()) {
    granted += s.v6_from_round != v6_from[s.id];
  }
  EXPECT_GT(granted, 0u) << "no epoch granted an AAAA record";
}

}  // namespace
}  // namespace v6mon::core
