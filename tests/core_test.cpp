#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/campaign.h"
#include "core/monitor.h"
#include "core/results.h"
#include "core/thread_pool.h"
#include "core/world_timeline.h"
#include "obs/metrics.h"
#include "reference/csv_reference.h"
#include "reference/dns_reference.h"
#include "reference_schedule.h"
#include "scenario/evolution.h"
#include "scenario/paper.h"
#include "scenario/world_builder.h"
#include "transport/download.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

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

// One row per monitored dual-stack site-round: the row's width is the
// store's memory.
static_assert(sizeof(Observation) == 24, "observation rows are 24 bytes");
// A round's counters are u32s: a 1,500-round store holds 48 KB of them.
static_assert(sizeof(RoundCounters) == 32, "round counters are eight u32s");
// The catalog's per-site cost: every campaign walks these, and a
// scale-1.0 world holds 330,000 of them.
static_assert(sizeof(web::Site) == 28, "catalog sites are 28 bytes");
static_assert(sizeof(web::Dynamics) == 16, "Dynamics records are 16 bytes");

TEST(PathRegistry, InternsRoutesOverPaths) {
  PathRegistry reg;
  const PathId p = reg.intern({1, 2, 3});
  const RouteId a = reg.intern_route(3, p);
  const RouteId b = reg.intern_route(3, kNoPath);
  EXPECT_EQ(reg.intern_route(3, p), a);
  EXPECT_NE(a, b);
  EXPECT_NE(reg.intern_route(4, p), a);
  EXPECT_EQ(reg.route_count(), 3u);
  EXPECT_EQ(reg.route(a).origin, 3u);
  EXPECT_EQ(reg.route(a).path, p);
  EXPECT_EQ(reg.route(b).path, kNoPath);
  // The span form interns the path with the route: the same ids for a
  // known path, a new path id for a new one.
  EXPECT_EQ(reg.intern_route(3, std::vector<topo::Asn>{1, 2, 3}), a);
  const RouteId c = reg.intern_route(5, std::vector<topo::Asn>{4, 5});
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.path(reg.route(c).path), (std::vector<topo::Asn>{4, 5}));
  EXPECT_EQ(reg.route(c).origin, 5u);
  EXPECT_EQ(reg.route(kNoRoute).origin, topo::kNoAs);
  EXPECT_EQ(reg.route(kNoRoute).path, kNoPath);
  reg.freeze();
  EXPECT_EQ(reg.route(a).path, p);  // lock-free reads after freeze
  EXPECT_EQ(reg.path(p), (std::vector<topo::Asn>{1, 2, 3}));
}

TEST(PathRegistry, InternsPairsOverRoutes) {
  PathRegistry reg;
  const RouteId a = reg.intern_route(3, std::vector<topo::Asn>{1, 2, 3});
  const RouteId b = reg.intern_route(3, kNoPath);
  const PairId ab = reg.intern_pair(a, b);
  EXPECT_EQ(reg.intern_pair(a, b), ab);
  EXPECT_NE(reg.intern_pair(b, a), ab);  // ordered: (v4, v6)
  const PairId v6_only = reg.intern_pair(kNoRoute, b);
  EXPECT_EQ(reg.pair(v6_only).v4, kNoRoute);
  EXPECT_EQ(reg.pair(v6_only).v6, b);
  // Two missing routes are no pair, and store nothing.
  EXPECT_EQ(reg.intern_pair(kNoRoute, kNoRoute), kNoPair);
  EXPECT_EQ(reg.pair_count(), 3u);
  EXPECT_EQ(reg.pair(kNoPair).v4, kNoRoute);
  EXPECT_EQ(reg.pair(kNoPair).v6, kNoRoute);
  EXPECT_EQ(reg.pair(ab).v4, a);
  EXPECT_EQ(reg.pair(ab).v6, b);

  // RIB entries intern their routes and paths with the pair; a VP
  // without AS paths records kNoPath.
  bgp::RibEntry e4{3, {1, 2, 3}};
  bgp::RibEntry e6{7, {4, 7}};
  EXPECT_EQ(reg.intern_pair(&e4, nullptr, true), reg.intern_pair(a, kNoRoute));
  const PairId rib = reg.intern_pair(&e4, &e6, true);
  EXPECT_EQ(reg.path(reg.route(reg.pair(rib).v6).path), e6.as_path);
  EXPECT_EQ(reg.route(reg.pair(reg.intern_pair(&e4, &e6, false)).v4).path, kNoPath);
  EXPECT_EQ(reg.intern_pair(nullptr, nullptr, true), kNoPair);
}

TEST(ResultsDb, CountersBucketStatuses) {
  RoundCounters deltas[2];
  apply_status(deltas[0], MonitorStatus::kV4Only);
  apply_status(deltas[0], MonitorStatus::kV4Only);
  apply_status(deltas[0], MonitorStatus::kMeasured);
  apply_status(deltas[0], MonitorStatus::kDifferentContent);
  apply_status(deltas[0], MonitorStatus::kV6DownloadFailed);
  apply_status(deltas[1], MonitorStatus::kV6Only);
  deltas[0].listed = 5;
  ResultsDb db;
  db.merge_counters(0, deltas);
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
  o.route_pair =
      db.paths().intern_pair(db.paths().intern_route(12, db.paths().intern({5, 12})),
                             db.paths().intern_route(12, db.paths().intern({6, 12})));
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

/// A store's rows as ingest batches: each batch is one merge_rows call, or
/// add() calls row by row when `one_by_one`.
struct IngestPlan {
  std::string name;
  std::vector<std::vector<Observation>> batches;
  bool one_by_one = false;
};

/// finalize() places rows by counting; the oracle is std::stable_sort by
/// (site, round) over the arrival order. Every row carries its arrival
/// index in `route_pair` and `v4_speed_kBps`, so a row that moved to the
/// wrong place among equal keys shows.
void expect_finalize_matches_stable_sort(const IngestPlan& plan) {
  SCOPED_TRACE(plan.name);
  ResultsDb db;
  std::vector<Observation> oracle;
  for (const std::vector<Observation>& batch : plan.batches) {
    std::vector<Observation> tagged = batch;
    for (Observation& o : tagged) {
      o.route_pair = static_cast<PairId>(oracle.size());
      o.v4_speed_kBps = static_cast<float>(oracle.size());
      oracle.push_back(o);
    }
    if (plan.one_by_one) {
      for (const Observation& o : tagged) db.add(o);
    } else {
      db.merge_rows(tagged);
    }
  }
  db.finalize();
  std::stable_sort(oracle.begin(), oracle.end(), [](const Observation& a, const Observation& b) {
    return a.site != b.site ? a.site < b.site : a.round < b.round;
  });
  std::vector<std::uint32_t> sites;
  for (const Observation& o : oracle) {
    if (sites.empty() || sites.back() != o.site) sites.push_back(o.site);
  }
  ASSERT_EQ(db.site_ids(), sites);
  std::size_t next = 0;
  for (const std::uint32_t site : sites) {
    const SiteSeries series = db.series(site);
    for (const Observation& o : series) {
      ASSERT_LT(next, oracle.size());
      const Observation& want = oracle[next++];
      ASSERT_EQ(o.site, want.site) << "row " << next - 1;
      ASSERT_EQ(o.round, want.round) << "row " << next - 1;
      ASSERT_EQ(o.route_pair, want.route_pair) << "row " << next - 1;
      ASSERT_EQ(o.v4_speed_kBps, want.v4_speed_kBps) << "row " << next - 1;
    }
  }
  EXPECT_EQ(next, oracle.size());
}

TEST(ResultsDb, FinalizeMatchesStableSortOracle) {
  std::mt19937_64 rng(44);
  const auto below = [&rng](std::uint64_t n) {
    return static_cast<std::uint32_t>(std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng));
  };
  const auto row = [](std::uint32_t site, std::uint32_t round) {
    Observation o;
    o.site = site;
    o.round = static_cast<std::uint16_t>(round);
    o.status = MonitorStatus::kMeasured;
    return o;
  };
  std::vector<IngestPlan> plans;
  plans.push_back({"empty store", {}});
  plans.push_back({"one row", {{row(9, 3)}}});
  // A campaign: one batch per round, each a shuffled work list of a
  // sparse set of site ids, the largest ids included.
  for (int trial = 0; trial < 4; ++trial) {
    IngestPlan plan{"shuffled batches #" + std::to_string(trial), {}};
    std::vector<std::uint32_t> pool;
    for (std::uint32_t i = 0, n = 1 + below(400); i < n; ++i) {
      pool.push_back(i % 7 == 0 ? 0xffffffffu - i : below(5'000'000));
    }
    for (std::uint32_t round = 0, rounds = 1 + below(60); round < rounds; ++round) {
      std::vector<std::uint32_t> work = pool;
      std::shuffle(work.begin(), work.end(), rng);
      work.resize(below(static_cast<std::uint64_t>(work.size()) + 1));
      std::vector<Observation> batch;
      for (const std::uint32_t site : work) batch.push_back(row(site, round));
      plan.batches.push_back(std::move(batch));
    }
    plan.one_by_one = trial % 2 == 1;
    plans.push_back(std::move(plan));
  }
  // W6D mini-rounds: every batch repeats the same (site, round) keys.
  {
    IngestPlan plan{"duplicate (site, round) keys", {}};
    for (int mini = 0; mini < 12; ++mini) {
      std::vector<Observation> batch;
      for (std::uint32_t site = 0; site < 300; site += 1 + below(5)) {
        batch.push_back(row(site * 31, 700));
      }
      std::shuffle(batch.begin(), batch.end(), rng);
      plan.batches.push_back(std::move(batch));
    }
    plans.push_back(std::move(plan));
  }
  // Rounds arriving in descending order, and in random order with ties.
  {
    IngestPlan descending{"descending rounds", {}};
    for (std::uint32_t round = 40; round-- > 0;) {
      std::vector<Observation> batch;
      for (std::uint32_t site = 0; site < 50; ++site) {
        if (below(3) != 0) batch.push_back(row(site, round));
      }
      descending.batches.push_back(std::move(batch));
    }
    plans.push_back(std::move(descending));
    IngestPlan random{"random rounds", {{}}, true};
    for (int i = 0; i < 5'000; ++i) random.batches[0].push_back(row(below(90), below(30)));
    plans.push_back(std::move(random));
  }
  // One site over 1,500 rounds, as in the multi-VP study, among a few
  // others.
  {
    IngestPlan plan{"one site of 1,500 rows", {}};
    for (std::uint32_t round = 0; round < 1'500; ++round) {
      std::vector<Observation> batch{row(77, round)};
      if (round % 100 == 0) batch.push_back(row(below(200), round));
      std::shuffle(batch.begin(), batch.end(), rng);
      plan.batches.push_back(std::move(batch));
    }
    plans.push_back(std::move(plan));
  }
  for (const IngestPlan& plan : plans) expect_finalize_matches_stable_sort(plan);
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

using csv_ref::kAllStatuses;
using csv_ref::kCsvHeader;
using csv_ref::stream_oracle_csv;

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

/// A deterministic spread of rows over every field's edge values (a route
/// pairs an origin with a path; no origin and no path is kNoRoute; a row
/// pairs two routes, and two kNoRoutes are kNoPair), plus
/// `random_rows` rows of arbitrary float bit patterns (NaN payloads
/// included) — enough bytes that the writer's buffer spills many times
/// and rows straddle its boundaries. Sites ascend with insertion order.
std::vector<Observation> edge_rows(PathRegistry& paths, std::size_t random_rows) {
  const std::vector<float> floats = regime_floats();
  const PathId path_ids[] = {kNoPath, paths.intern({}), paths.intern({7}),
                             paths.intern({1, 22, 333, 4444, 4294967294u})};
  const topo::Asn origins[] = {topo::kNoAs, 0, 65535, topo::kNoAs - 1};
  const std::uint16_t samples[] = {0, 1, 9, 65535};
  const std::uint16_t rounds[] = {0, 7, 0xfffe, 0xffff};
  const auto route = [&paths](topo::Asn origin, PathId path) {
    return origin == topo::kNoAs && path == kNoPath ? kNoRoute
                                                    : paths.intern_route(origin, path);
  };

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
    o.route_pair = paths.intern_pair(route(origins[i % 4], path_ids[i % 4]),
                                     route(origins[(i + 1) % 4], path_ids[(i / 5) % 4]));
    rows.push_back(o);
  }
  // One path longer than any buffer block.
  std::vector<topo::Asn> huge(7000);
  for (std::size_t i = 0; i < huge.size(); ++i) {
    huge[i] = topo::kNoAs - 1 - static_cast<topo::Asn>(i);
  }
  Observation& mid = rows[rows.size() / 2];
  const RoutePair pair = paths.pair(mid.route_pair);
  mid.route_pair = paths.intern_pair(
      pair.v4, paths.intern_route(paths.route(pair.v6).origin, paths.intern(huge)));
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

// A family without a RIB route records kNoRoute: an empty origin column
// and "-" for its path, as is a route without a path for its path column.
TEST(ResultsCsv, MissingRouteRendersEmptyOriginAndDash) {
  ResultsDb db;
  Observation o;
  o.site = 4;
  o.round = 2;
  o.status = MonitorStatus::kV6DownloadFailed;
  // A VP without AS paths, and no v6 route.
  o.route_pair = db.paths().intern_pair(db.paths().intern_route(12, kNoPath), kNoRoute);
  db.add(o);
  db.finalize();
  EXPECT_EQ(db.to_csv(), std::string(kCsvHeader) +
                             "4,2,v6-download-failed,0,0,0,0,12,,-,-\n");
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
    if (s.v6_record == web::kNoV6Record) {
      v4only = &s;
      break;
    }
  }
  ASSERT_NE(v4only, nullptr);
  const auto obs = mon.monitor_site(*v4only, 0, {}, util::Rng(2));
  EXPECT_EQ(obs.status, MonitorStatus::kV4Only);
}

TEST(Monitor, DualStackSiteMeasured) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[1];  // full-parity VP
  Monitor mon(w, vp, {});
  const PathRegistry& paths = mon.routes();

  int measured = 0, examined = 0;
  for (const web::Site& s : w.catalog.sites()) {
    if (!w.catalog.dual_stack_at(s, 5) || w.catalog.v6_presence(s).page_ratio != 1.0f) {
      continue;
    }
    if (++examined > 40) break;
    const auto obs = mon.monitor_site(s, 5, {}, util::Rng(1000 + s.id));
    if (obs.status == MonitorStatus::kMeasured) {
      ++measured;
      EXPECT_GT(obs.v4_speed_kBps, 0.0f);
      EXPECT_GT(obs.v6_speed_kBps, 0.0f);
      EXPECT_GE(obs.v4_samples, 3u);
      const Route v4 = paths.route(paths.pair(obs.route_pair).v4);
      const Route v6 = paths.route(paths.pair(obs.route_pair).v6);
      EXPECT_NE(v4.origin, topo::kNoAs);
      EXPECT_NE(v6.origin, topo::kNoAs);
      EXPECT_NE(v4.path, kNoPath);
      EXPECT_NE(v6.path, kNoPath);
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

  const web::Site* diff = nullptr;
  for (const web::Site& s : w.catalog.sites()) {
    if (w.catalog.dual_stack_at(s, 5) && w.catalog.v6_presence(s).page_ratio > 1.06f) {
      diff = &s;
      break;
    }
  }
  ASSERT_NE(diff, nullptr) << "catalog generated no different-content site";
  const auto obs = mon.monitor_site(*diff, 5, {}, util::Rng(3));
  EXPECT_EQ(obs.status, MonitorStatus::kDifferentContent);
}

TEST(Monitor, DeterministicGivenSameRng) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[1];
  Monitor mon(w, vp, {});

  const web::Site* dual = nullptr;
  for (const web::Site& s : w.catalog.sites()) {
    if (w.catalog.dual_stack_at(s, 5)) {
      dual = &s;
      break;
    }
  }
  ASSERT_NE(dual, nullptr);
  const auto a = mon.monitor_site(*dual, 5, {}, util::Rng(42));
  const auto b = mon.monitor_site(*dual, 5, {}, util::Rng(42));
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.v4_speed_kBps, b.v4_speed_kBps);
  EXPECT_EQ(a.v6_speed_kBps, b.v6_speed_kBps);
  EXPECT_EQ(a.route_pair, b.route_pair);  // one pair, interned once
  EXPECT_EQ(mon.routes().pair_count(), 1u);
}

TEST(Monitor, SeparateProviderVpYieldsDivergentPaths) {
  const auto& w = small_world().world;
  const VantagePoint& penn_like = w.vantage_points[0];
  Monitor mon(w, penn_like, {});
  const PathRegistry& paths = mon.routes();

  int same = 0, diff = 0;
  for (const web::Site& s : w.catalog.sites()) {
    if (!w.catalog.dual_stack_at(s, 5) || w.catalog.different_location(s)) continue;
    const auto obs = mon.monitor_site(s, 5, {}, util::Rng(77 + s.id));
    if (obs.status != MonitorStatus::kMeasured) continue;
    const Route v4 = paths.route(paths.pair(obs.route_pair).v4);
    const Route v6 = paths.route(paths.pair(obs.route_pair).v6);
    if (v4.origin != v6.origin) continue;
    if (v4.path == v6.path) ++same;
    else ++diff;
    if (same + diff > 120) break;
  }
  EXPECT_GT(diff, same * 3) << "separate-provider VP should be DP-dominated";
}

// Each recorded row's routes read back what the vantage point's RIB gave
// for the site's addresses at that round: the origin, and the AS path at
// a VP with AS paths (no path at one without). A family with no RIB route
// records kNoRoute: every third v6 prefix is withdrawn from each RIB so
// that some dual-stack sites have none. Regular and W6D stores, on a
// frozen world, so the RIB is the one the campaign read. Both stores read
// the VP's one registry, and it holds exactly the pairs, routes and paths
// their rows reference: without DNS loss every row the monitor resolves
// is recorded.
TEST(Campaign, RecordedRoutesMatchRibLookups) {
  scenario::WorldSpec spec = small_world().spec;
  spec.vantage_points[1].has_as_path = false;
  World world = scenario::build_world(spec);
  for (VantagePoint& vp : world.vantage_points) {
    std::vector<ip::Ipv6Prefix> prefixes;
    vp.rib.for_each_v6([&](const ip::Ipv6Prefix& p, const bgp::RibEntry&) {
      prefixes.push_back(p);
    });
    for (std::size_t i = 0; i < prefixes.size(); i += 3) vp.rib.erase_v6(prefixes[i]);
  }
  CampaignConfig cfg;
  cfg.seed = 5;
  cfg.threads = 2;
  Campaign campaign(world, cfg);
  campaign.run();
  campaign.run_w6d();
  campaign.finalize();
  for (std::size_t v = 0; v < world.vantage_points.size(); ++v) {
    const VantagePoint& vp = world.vantage_points[v];
    SCOPED_TRACE("vp=" + vp.name);
    std::size_t rows = 0, unrouted = 0;
    const PathRegistry& reg = campaign.monitor(v).routes();
    std::set<PairId> pairs;
    std::set<RouteId> routes;
    std::set<PathId> paths;
    for (const ResultsDb* db : {&campaign.results(v), &campaign.w6d_results(v)}) {
      ASSERT_EQ(&db->paths(), &reg);
      const auto expect_route = [&](RouteId id, const bgp::RibEntry* rib) {
        if (rib == nullptr) {
          EXPECT_EQ(id, kNoRoute);
          ++unrouted;
          return;
        }
        ASSERT_NE(id, kNoRoute);
        const Route r = reg.route(id);
        EXPECT_EQ(r.origin, rib->origin);
        if (!vp.has_as_path) {
          EXPECT_EQ(r.path, kNoPath);
          return;
        }
        ASSERT_NE(r.path, kNoPath);
        EXPECT_EQ(reg.path(r.path), rib->as_path);
      };
      for (const std::uint32_t site : db->site_ids()) {
        for (const Observation& o : db->series(site)) {
          const web::Hosting h = world.catalog.hosting_at(world.catalog.site(site), o.round);
          SCOPED_TRACE(testing::Message() << "site=" << site << " round=" << o.round);
          const RoutePair pair = reg.pair(o.route_pair);
          expect_route(pair.v4, vp.rib.lookup_v4(h.v4_addr));
          expect_route(pair.v6, vp.rib.lookup_v6(h.v6_addr));
          if (o.route_pair != kNoPair) pairs.insert(o.route_pair);
          for (const RouteId r : {pair.v4, pair.v6}) {
            if (r == kNoRoute) continue;
            routes.insert(r);
            if (reg.route(r).path != kNoPath) paths.insert(reg.route(r).path);
          }
          ++rows;
        }
      }
    }
    EXPECT_EQ(pairs.size(), reg.pair_count());
    EXPECT_EQ(routes.size(), reg.route_count());
    EXPECT_EQ(paths.size(), reg.size());
    EXPECT_GT(rows, 100u);
    EXPECT_GT(unrouted, 0u);
  }
}

/// What one family's CI loop measures, and what it spent.
struct ReferenceMeasurement {
  bool ok = false;
  double mean_time_s = 0.0;
  double speed_kBps = 0.0;
  std::size_t samples = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
};

/// The paper's Fig. 2 loop written out over the scalar sampler: one
/// `simulate` per attempt, at most max_downloads + fetch_retries
/// attempts, and the CI gate checked after each success once
/// min_downloads have succeeded. It stops when the gate passes or
/// max_downloads samples are in.
ReferenceMeasurement reference_measure_family(const MonitorConfig& cfg,
                                              const transport::PathCharacteristics& path,
                                              double page_kb, double server_rate_kBps,
                                              util::Rng& rng) {
  const transport::DownloadSimulator sim(cfg.download);
  const util::CiGateTable gates(cfg.ci_rel, cfg.confidence, cfg.max_downloads);
  ReferenceMeasurement m;
  util::RunningStats times;
  const std::size_t budget = cfg.max_downloads + cfg.fetch_retries;
  for (std::size_t attempt = 0; attempt < budget; ++attempt) {
    ++m.attempts;
    const transport::DownloadResult r = sim.simulate(path, page_kb, server_rate_kBps, rng);
    if (!r.ok) {
      ++m.failures;
      continue;
    }
    times.add(r.seconds);
    if (times.count() >= cfg.min_downloads &&
        (gates.meets(times) || times.count() >= cfg.max_downloads)) {
      break;
    }
  }
  if (times.count() >= cfg.min_downloads) {
    m.ok = true;
    m.mean_time_s = times.mean();
    m.speed_kBps = page_kb / m.mean_time_s;
    m.samples = times.count();
  }
  return m;
}

TEST(Monitor, MeasureFamilyMatchesScalarReference) {
  struct Case {
    const char* name;
    double failure_prob;
    double noise_sigma;
    double ci_rel;
    std::size_t max_downloads;
    std::size_t fetch_retries;
  };
  const MonitorConfig defaults;
  const Case cases[] = {
      {"default", 0.002, 0.12, defaults.ci_rel, defaults.max_downloads,
       defaults.fetch_retries},
      {"no_failures", 0.0, 0.12, defaults.ci_rel, defaults.max_downloads,
       defaults.fetch_retries},
      {"no_noise", 0.002, 0.0, defaults.ci_rel, defaults.max_downloads,
       defaults.fetch_retries},
      {"deterministic", 0.0, 0.0, defaults.ci_rel, defaults.max_downloads,
       defaults.fetch_retries},
      // Five attempts for three successes: the budget often runs out.
      {"budget_runs_out", 0.5, 0.12, defaults.ci_rel, 4, 1},
      // The gate never passes: max_downloads stops every loop.
      {"tight_ci", 0.002, 0.12, 0.001, defaults.max_downloads, defaults.fetch_retries},
  };
  transport::PathCharacteristics path;
  path.valid = true;
  path.rtt_ms = 80.0;
  path.bottleneck_kBps = 400.0;
  path.quality = 0.9;
  constexpr double kPageKb = 30.0;
  constexpr double kServerRate = 90.0;
  constexpr std::uint64_t kKeys = 1000;
  const util::Rng root(2011);
  const auto& w = small_world().world;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MonitorConfig cfg;
    cfg.download.failure_prob = c.failure_prob;
    cfg.download.noise_sigma = c.noise_sigma;
    cfg.ci_rel = c.ci_rel;
    cfg.max_downloads = c.max_downloads;
    cfg.fetch_retries = c.fetch_retries;
    const Monitor mon(w, w.vantage_points[1], cfg);
    const transport::PreparedDownload prep =
        transport::DownloadSimulator(cfg.download).prepare(path, kPageKb, kServerRate);
    ASSERT_TRUE(prep.valid);
    std::uint64_t ok = 0, at_budget = 0;
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      SCOPED_TRACE(testing::Message() << "key " << key);
      util::Rng rng(root.child_seed("measure", key));
      util::Rng ref_rng(root.child_seed("measure", key));
      transport::DownloadTally tally;
      const Monitor::FamilyMeasurement m = mon.measure_family(prep, rng, tally);
      const ReferenceMeasurement ref =
          reference_measure_family(cfg, path, kPageKb, kServerRate, ref_rng);
      ASSERT_EQ(m.ok, ref.ok);
      ASSERT_EQ(m.samples, ref.samples);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.mean_time_s),
                std::bit_cast<std::uint64_t>(ref.mean_time_s));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.speed_kBps),
                std::bit_cast<std::uint64_t>(ref.speed_kBps));
      ASSERT_EQ(tally.attempts, ref.attempts);
      ASSERT_EQ(tally.failures, ref.failures);
      ASSERT_EQ(rng.engine()(), ref_rng.engine()());
      ok += m.ok ? 1 : 0;
      at_budget += m.samples == c.max_downloads ? 1 : 0;
    }
    if (std::string_view(c.name) == "budget_runs_out") {
      EXPECT_LT(ok, kKeys);
      EXPECT_GT(ok, 0u);
    } else if (std::string_view(c.name) == "tight_ci") {
      EXPECT_EQ(at_budget, ok);
      EXPECT_GT(ok, 0u);
    } else {
      EXPECT_EQ(ok, kKeys);
    }
  }
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
  // stamps[vp][key]: the world epoch the row with that key last carried.
  // A purged key comes back only in a later epoch, so a key's stamp
  // never goes backward.
  using RowKey = std::tuple<const bgp::RibEntry*, const bgp::RibEntry*, topo::Asn>;
  const auto check_epoch_stamps = [](const Campaign& campaign, std::size_t num_vps,
                                     std::uint32_t current_epoch,
                                     std::vector<std::map<RowKey, std::uint32_t>>& stamps) {
    stamps.resize(num_vps);
    for (std::size_t v = 0; v < num_vps; ++v) {
      const ResolvedSiteTable& table = campaign.monitor(v).resolved_sites();
      for (std::uint32_t id = 0; id < table.size(); ++id) {
        const ResolvedSiteRow& row = table.row(id);
        const std::uint32_t stamp = row.world_epoch;
        std::uint32_t& last = stamps[v][RowKey{row.v4_route, row.v6_route, row.island}];
        EXPECT_LE(stamp, current_epoch) << "vp " << v << " row " << id;
        EXPECT_GE(stamp, last) << "vp " << v << " row " << id;
        last = stamp;
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
                std::vector<std::map<RowKey, std::uint32_t>> stamps;
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
                          if (!world.catalog.in_list_at(s, r) ||
                              (world.catalog.from_dns_cache(s) &&
                               !vp.uses_dns_cache_supplement)) {
                            continue;
                          }
                          dual_clean +=
                              lost[s.id] == 0 && world.catalog.dual_stack_at(s, r);
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
                  if (!world.catalog.v6_presence(s).w6d_participant) continue;
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
                        if (world.catalog.in_list_at(s, r) &&
                            (!world.catalog.from_dns_cache(s) ||
                             vp.uses_dns_cache_supplement)) {
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
  // themselves: a change here is an output-format change. The first
  // case is the default download model every workload runs; the other
  // three pin the sampler's corners (no failures, no noise, neither),
  // which no workload reaches. The two noise-free cases read the same
  // bytes: every sample is the same number, so the CI gate passes at
  // min_downloads and a failed attempt moves no recorded field.
  struct Case {
    double failure_prob;
    double noise_sigma;
    std::uint64_t observations;
    std::uint64_t w6d;
  };
  const transport::DownloadParams defaults;
  const Case cases[] = {
      {defaults.failure_prob, defaults.noise_sigma, 0x46c16c4f47ace918ULL,
       0x351d3a5447e22b87ULL},
      {0.0, 0.12, 0x1166516be164c1a4ULL, 0x7201b9641750e260ULL},
      {0.002, 0.0, 0x076cf338f949f7d6ULL, 0xdb6eb2b2ac3591b4ULL},
      {0.0, 0.0, 0x076cf338f949f7d6ULL, 0xdb6eb2b2ac3591b4ULL},
  };
  const auto& w = small_world().world;
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "failure_prob=" << c.failure_prob
                                    << " noise_sigma=" << c.noise_sigma);
    CampaignConfig cfg;
    cfg.seed = 7;
    cfg.threads = 2;
    cfg.w6d_mini_rounds = 3;
    cfg.monitor.download.failure_prob = c.failure_prob;
    cfg.monitor.download.noise_sigma = c.noise_sigma;
    Campaign campaign(w, cfg);
    campaign.run();
    campaign.run_w6d();
    campaign.finalize();
    std::string observations, w6d;
    std::uint64_t measured = 0;
    for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
      const ResultsDb& db = campaign.results(vp);
      observations += db.to_csv();
      w6d += campaign.w6d_results(vp).to_csv();
      for (std::uint32_t r = 0; r < db.rounds(); ++r) {
        measured += db.round_counters(r).measured;
      }
    }
    // Every case runs the CI loop: a digest over no measured rows would
    // pin nothing of the sampler.
    EXPECT_GT(measured, 0u);
    EXPECT_GT(observations.size(), std::size_t{100'000});
    EXPECT_EQ(fnv1a64(observations), c.observations) << observations.size() << " bytes";
    EXPECT_EQ(fnv1a64(w6d), c.w6d) << w6d.size() << " bytes";
  }
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

// A vantage point has one route registry: its monitor interns into it,
// and its regular and W6D stores read it, frozen once finalize() is done.
TEST(Campaign, VpStoresShareOneFrozenRegistry) {
  const auto& w = small_world().world;
  const std::string dir = ::testing::TempDir() + "/shared_registry_" +
                          ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  for (const SinkBackend sink : {SinkBackend::kSharded, SinkBackend::kSpool}) {
    SCOPED_TRACE("sink=" + std::to_string(static_cast<int>(sink)));
    CampaignConfig cfg;
    cfg.seed = 5;
    cfg.threads = 4;
    cfg.sink = sink;
    cfg.spool_dir = dir;
    Campaign campaign(w, cfg);
    campaign.run();
    campaign.run_w6d();
    campaign.finalize();
    for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
      const PathRegistry& routes = campaign.monitor(vp).routes();
      EXPECT_EQ(&campaign.results(vp).paths(), &routes);
      EXPECT_EQ(&campaign.w6d_results(vp).paths(), &routes);
      EXPECT_TRUE(routes.frozen());
      EXPECT_GT(routes.pair_count(), 0u);
    }
  }
  std::filesystem::remove_all(dir);
}

// Under the fast path every work-list site records exactly one row, so
// the round walk sizes each regular store exactly: an in-memory store
// reserves its rows when the walk's index is built, a spool store just
// before its replay, and neither allocates rows again. A W6D store
// reserves one row per participant and mini-round, an upper bound.
TEST(Campaign, StoresAllocateTheirRowsOnce) {
  const std::string dir = ::testing::TempDir() + "/rows_once_" +
                          ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  for (const bool evolving : {false, true}) {
    scenario::WorldSpec spec = scenario::paper_spec(2011, 0.1);
    spec.evolution.enabled = evolving;
    std::optional<World> frozen;
    if (!evolving) frozen.emplace(scenario::build_world(spec));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      // The in-memory store's reservation, per VP, for the spool run.
      std::vector<std::size_t> reserved(spec.vantage_points.size(), 0);
      for (const SinkBackend sink : {SinkBackend::kSharded, SinkBackend::kSpool}) {
        SCOPED_TRACE("evolving=" + std::to_string(evolving) +
                     " threads=" + std::to_string(threads) +
                     " sink=" + std::to_string(static_cast<int>(sink)));
        CampaignConfig cfg = scenario::paper_campaign_config(2011);
        ASSERT_TRUE(cfg.fast_path);
        cfg.threads = threads;
        cfg.sink = sink;
        cfg.spool_dir = dir;
        std::optional<WorldTimeline> timeline;
        std::optional<Campaign> campaign;
        if (evolving) {
          timeline.emplace(scenario::build_timeline(spec));
          ASSERT_FALSE(timeline->empty());
          campaign.emplace(*timeline, cfg);
        } else {
          campaign.emplace(*frozen, cfg);
        }
        const World& w = campaign->world();
        // Run round by round, as run() does, reading every store's
        // capacity after each round.
        for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
          campaign->advance_world(round);
          for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
            campaign->run_round(vp, round);
            if (round < w.vantage_points[vp].start_round) continue;
            const std::size_t capacity = campaign->results(vp).row_capacity();
            if (sink == SinkBackend::kSpool) {
              ASSERT_EQ(capacity, 0u) << "vp " << vp << " round " << round;
            } else if (round == w.vantage_points[vp].start_round) {
              reserved[vp] = capacity;
            } else {
              ASSERT_EQ(capacity, reserved[vp]) << "vp " << vp << " round " << round;
            }
          }
        }
        campaign->run_w6d();
        campaign->finalize();
        std::size_t participants = 0;
        for (const web::V6Presence& record : w.catalog.v6_records()) {
          participants += record.w6d_participant ? 1 : 0;
        }
        for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
          SCOPED_TRACE("vp " + std::to_string(vp));
          const auto rows = [](const ResultsDb& db) {
            std::size_t n = 0;
            for (const std::uint32_t site : db.site_ids()) n += db.series(site).size();
            return n;
          };
          const ResultsDb& regular = campaign->results(vp);
          EXPECT_GT(rows(regular), 0u);
          EXPECT_EQ(rows(regular), reserved[vp]);
          EXPECT_EQ(regular.row_capacity(), reserved[vp]);
          const ResultsDb& w6d = campaign->w6d_results(vp);
          const bool in_w6d = w.vantage_points[vp].start_round <= w.w6d_round;
          EXPECT_EQ(w6d.row_capacity(), in_w6d ? participants * cfg.w6d_mini_rounds : 0);
          EXPECT_LE(rows(w6d), w6d.row_capacity());
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

#if V6MON_CONTRACT_LEVEL >= 1

// run() checks finalize() on the calling thread, before any round runs on
// a pool worker: a contract violation thrown from inside a worker would
// terminate the process instead of reaching the caller.
// run_round ingests its round, counters included, before it returns:
// right after it, and long before finalize(), the round's four exclusive
// status buckets add up to its listed count. That includes rounds whose
// work list is empty because the round walk settled every listed site.
// The world is the multi-VP study of bench/study: 16 vantage points x
// 1,500 rounds of a 250-site catalog, where most rounds have nothing to
// measure.
TEST(Campaign, RoundCountersCompleteAfterEveryRound) {
  scenario::WorldSpec spec;
  spec.seed = 2011;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 30;
  spec.topology.num_stub = 150;
  spec.catalog.initial_sites = 250;
  spec.catalog.churn_per_round = 1;
  spec.catalog.num_rounds = 1500;
  spec.w6d_round = 750;
  const scenario::V6UplinkMode modes[] = {scenario::V6UplinkMode::kSameProviders,
                                          scenario::V6UplinkMode::kSubsetProviders,
                                          scenario::V6UplinkMode::kSeparateProvider};
  const topo::Region regions[] = {topo::Region::kNorthAmerica, topo::Region::kEurope,
                                  topo::Region::kAsia};
  for (int i = 0; i < 16; ++i) {
    spec.vantage_points.push_back(
        {.name = "VP-" + std::to_string(i),
         .type = i % 2 == 0 ? VantagePoint::Type::kAcademic : VantagePoint::Type::kCommercial,
         .region = regions[i % 3],
         .start_round = static_cast<std::uint32_t>(i % 4),
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = i % 4 == 0,
         .num_v4_providers = 1 + i % 2,
         .v6_mode = modes[i % 3]});
  }
  const World w = scenario::build_world(spec);
  CampaignConfig cfg = scenario::paper_campaign_config(2011);
  cfg.threads = 2;
  Campaign campaign(w, cfg);
  std::size_t settled_only = 0;  // listed rounds in which no site was dual-stack
  for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
    for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
      campaign.run_round(vp, round);
      if (round < w.vantage_points[vp].start_round) continue;
      const RoundCounters& c = campaign.results(vp).round_counters(round);
      ASSERT_EQ(std::uint64_t{c.v4_only} + c.v6_only + c.dual + c.dns_failed, c.listed)
          << "vp " << vp << " round " << round;
      if (c.listed != 0 && c.dual == 0) ++settled_only;
    }
  }
  EXPECT_GT(settled_only, 0u);
  campaign.run_w6d();
  campaign.finalize();
}

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

// Rows keyed by `routes`' addresses: the table compares and hashes a
// row's route pointers, never follows them.
ResolvedSiteRow keyed_row(const bgp::RibEntry* v4, const bgp::RibEntry* v6,
                          topo::Asn island = kNotSixToFour) {
  ResolvedSiteRow row;
  row.v4_route = v4;
  row.v6_route = v6;
  row.island = island;
  return row;
}

TEST(ResolvedSiteTable, FindOnUnassignedKeyReturnsNoSlot) {
  const std::array<bgp::RibEntry, 2> routes{};
  ResolvedSiteTable table;
  table.cover(2);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.index_size(), 4u);
  EXPECT_EQ(table.find(0, 0), ResolvedSiteTable::kNoRow);
  EXPECT_EQ(table.find(1, 1), ResolvedSiteTable::kNoRow);
  EXPECT_EQ(table.find(2, 0), ResolvedSiteTable::kNoRow);  // beyond the index
  EXPECT_EQ(table.find_row(keyed_row(&routes[0], &routes[1])), ResolvedSiteTable::kNoRow);

  const std::uint32_t id = table.add(keyed_row(&routes[0], &routes[1]));
  EXPECT_TRUE(table.assign(1, 1, id));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(1, 1), id);
  EXPECT_EQ(table.find(1, 0), ResolvedSiteTable::kNoRow);
  EXPECT_EQ(table.find_row(keyed_row(&routes[0], &routes[1])), id);
  // Each key part counts: the families swapped, another island, no route.
  EXPECT_EQ(table.find_row(keyed_row(&routes[1], &routes[0])), ResolvedSiteTable::kNoRow);
  EXPECT_EQ(table.find_row(keyed_row(&routes[0], &routes[1], kNoIsland)),
            ResolvedSiteTable::kNoRow);
  EXPECT_EQ(table.find_row(keyed_row(&routes[0], nullptr)), ResolvedSiteTable::kNoRow);

  // Covering grows the index and keeps what it holds; it never shrinks.
  table.cover(1);
  EXPECT_EQ(table.index_size(), 4u);
  table.cover(3);
  EXPECT_EQ(table.index_size(), 6u);
  EXPECT_EQ(table.find(1, 1), id);
  EXPECT_EQ(table.find(2, 0), ResolvedSiteTable::kNoRow);
}

#if V6MON_CONTRACT_LEVEL >= 1

TEST(ResolvedSiteTable, AssignRejectsDuplicateAndOutOfCatalogKeys) {
  const std::array<bgp::RibEntry, 2> routes{};
  ResolvedSiteTable table;
  table.cover(2);
  const std::uint32_t id = table.add(keyed_row(&routes[0], &routes[1]));
  EXPECT_TRUE(table.assign(1, 0, id));
  EXPECT_THROW((void)table.assign(1, 0, id), ContractError);      // already set
  EXPECT_THROW((void)table.assign(1, 2, id), ContractError);      // no such epoch
  EXPECT_THROW((void)table.assign(2, 0, id), ContractError);      // beyond the records
  EXPECT_THROW((void)table.assign(0, 0, id + 1), ContractError);  // no such row
  EXPECT_THROW((void)table.add(keyed_row(&routes[0], &routes[1])), ContractError);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(0, 0), ResolvedSiteTable::kNoRow);
}

// Hosting epochs are 0 and 1: find(r, 2) would otherwise read the entry
// of (r + 1, 0).
TEST(ResolvedSiteTableDeathTest, FindRejectsHostingEpochAboveOne) {
  const std::array<bgp::RibEntry, 2> routes{};
  ResolvedSiteTable table;
  table.cover(4);
  EXPECT_TRUE(table.assign(1, 0, table.add(keyed_row(&routes[0], &routes[1]))));
  EXPECT_DEATH((void)table.find(0, 2), "hosting epoch must be 0 or 1");
}

#endif  // V6MON_CONTRACT_LEVEL >= 1

// Equal keys share one row; a purge drops the stale rows with their keys
// and resets the entries that pointed at them, survivors keep their
// content under new ids, and a refill through the same key makes a new
// row with the new stamp.
TEST(ResolvedSiteTable, FillStampsWorldEpochAndInvalidateAllowsRefill) {
  const std::array<bgp::RibEntry, 4> routes{};
  ResolvedSiteTable table;
  table.cover(3);
  ResolvedSiteRow a = keyed_row(&routes[0], &routes[1]);
  a.route_pair = 7;
  a.world_epoch = 3;
  a.gate = MonitorStatus::kV6DownloadFailed;
  const std::uint32_t id_a = table.add(a);
  EXPECT_TRUE(table.assign(0, 0, id_a));
  EXPECT_TRUE(table.assign(1, 0, id_a));
  ResolvedSiteRow b = keyed_row(&routes[2], &routes[3], 64);
  b.world_epoch = 3;
  const std::uint32_t id_b = table.add(b);
  EXPECT_TRUE(table.assign(2, 1, id_b));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.row(id_a).world_epoch, 3u);
  EXPECT_EQ(table.row(id_a).route_pair, 7u);
  EXPECT_EQ(table.row(id_a).gate, MonitorStatus::kV6DownloadFailed);

  EXPECT_EQ(table.purge({false, false}), 0u);
  EXPECT_EQ(table.find(0, 0), id_a);
  EXPECT_EQ(table.purge({true, false}), 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(0, 0), ResolvedSiteTable::kNoRow);
  EXPECT_EQ(table.find(1, 0), ResolvedSiteTable::kNoRow);
  EXPECT_EQ(table.find_row(a), ResolvedSiteTable::kNoRow);
  const std::uint32_t moved = table.find(2, 1);
  ASSERT_NE(moved, ResolvedSiteTable::kNoRow);
  EXPECT_TRUE(table.row(moved).same_key(b));
  EXPECT_EQ(table.find_row(b), moved);

  a.world_epoch = 5;
  a.route_pair = kNoPair;
  a.gate = MonitorStatus::kMeasured;
  const std::uint32_t refill = table.add(a);
  EXPECT_FALSE(table.assign(0, 0, refill)) << "a purged entry was set before";
  EXPECT_EQ(table.find(0, 0), refill);
  EXPECT_EQ(table.row(refill).world_epoch, 5u);
  EXPECT_EQ(table.row(refill).route_pair, kNoPair);
  EXPECT_EQ(table.row(refill).gate, MonitorStatus::kMeasured);
}

// The open-addressing key map through its growth and a purge that drops
// every other row: every surviving key finds its own row, no dropped key
// finds one, and the ledger counts capacities.
TEST(ResolvedSiteTable, KeyMapFindsEveryRowAcrossGrowthAndPurge) {
  const std::vector<bgp::RibEntry> routes(40);
  ResolvedSiteTable table;
  std::vector<ResolvedSiteRow> keys;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    for (const topo::Asn island : {kNotSixToFour, kNoIsland, topo::Asn{9}}) {
      keys.push_back(keyed_row(&routes[i], &routes[(i * 7) % routes.size()], island));
      EXPECT_EQ(table.add(keys.back()), keys.size() - 1);
    }
  }
  for (std::uint32_t id = 0; id < keys.size(); ++id) EXPECT_EQ(table.find_row(keys[id]), id);
  EXPECT_GE(table.bytes(), keys.size() * (sizeof(ResolvedSiteRow) + 2 * sizeof(std::uint32_t)));
  std::vector<bool> stale(keys.size());
  for (std::size_t id = 0; id < keys.size(); id += 2) stale[id] = true;
  EXPECT_EQ(table.purge(stale), keys.size() / 2);
  for (std::uint32_t id = 0; id < keys.size(); ++id) {
    EXPECT_EQ(table.find_row(keys[id]), id % 2 == 0 ? ResolvedSiteTable::kNoRow : id / 2);
  }
}

// A campaign's index against the rows it points at, after a frozen and an
// evolving campaign (relocated sites take hosting-epoch-1 entries, epochs
// grant AAAA records) at 1 and 4 threads: the index covers every IPv6
// record, every set entry finds a row, every row is found by some entry
// and by its own key, and rows are shared across entries.
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
      const std::size_t generated_records = world.catalog.v6_records().size();
      auto campaign = evolving ? std::make_unique<Campaign>(*timeline, cfg)
                               : std::make_unique<Campaign>(world, cfg);
      campaign->run();
      campaign->run_w6d();

      std::size_t relocated_keys = 0;
      std::size_t granted_keys = 0;
      std::size_t shared_rows = 0;
      for (std::size_t v = 0; v < world.vantage_points.size(); ++v) {
        SCOPED_TRACE(testing::Message() << "vp=" << v);
        const ResolvedSiteTable& table = campaign->monitor(v).resolved_sites();
        ASSERT_GT(table.size(), 0u);
        EXPECT_EQ(table.index_size(), 2 * world.catalog.v6_records().size());
        std::vector<std::size_t> found(table.size(), 0);
        for (std::uint32_t record = 0; 2 * std::size_t{record} < table.index_size(); ++record) {
          for (const std::uint8_t epoch : {std::uint8_t{0}, std::uint8_t{1}}) {
            const std::uint32_t id = table.find(record, epoch);
            if (id == ResolvedSiteTable::kNoRow) continue;
            ASSERT_LT(id, table.size()) << "record " << record;
            ++found[id];
            relocated_keys += epoch;
            granted_keys += record >= generated_records;
          }
        }
        for (std::uint32_t id = 0; id < table.size(); ++id) {
          EXPECT_GT(found[id], 0u) << "row " << id << " found by no entry";
          EXPECT_EQ(table.find_row(table.row(id)), id) << "row " << id;
          shared_rows += found[id] > 1;
        }
      }
      EXPECT_GT(relocated_keys, 0u) << "no relocated site took an epoch-1 entry";
      EXPECT_EQ(granted_keys > 0, evolving) << "AAAA grants and index entries disagree";
      EXPECT_GT(shared_rows, 0u) << "no two entries share a row";
    }
  }
}

// Every resolved path field, bit for bit.
void expect_same_path(const transport::PathCharacteristics& a,
                      const transport::PathCharacteristics& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rtt_ms), std::bit_cast<std::uint64_t>(b.rtt_ms));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.bottleneck_kBps),
            std::bit_cast<std::uint64_t>(b.bottleneck_kBps));
  EXPECT_EQ(a.as_hops, b.as_hops);
  EXPECT_EQ(a.underlying_hops, b.underlying_hops);
  EXPECT_EQ(a.via_tunnel, b.via_tunnel);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.quality), std::bit_cast<std::uint64_t>(b.quality));
}

// The oracle for the shared rows: after frozen and evolving campaigns at
// 1 and 4 threads, every set index
// entry's row equals a fresh resolution of hosting_at at every
// dual-stack round of that hosting epoch, in the world as it stands, and
// sites whose fresh keys are equal point at one row id.
TEST(ResolvedSiteTable, SetEntriesMatchFreshResolution) {
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
      cfg.seed = 11;
      cfg.threads = threads;
      std::optional<WorldTimeline> timeline;
      if (evolving) timeline.emplace(scenario::build_timeline(evolving_spec));
      const World& world = evolving ? timeline->world() : small_world().world;
      auto campaign = evolving ? std::make_unique<Campaign>(*timeline, cfg)
                               : std::make_unique<Campaign>(world, cfg);
      campaign->run();
      campaign->run_w6d();

      const web::SiteCatalog& catalog = world.catalog;
      std::vector<std::uint32_t> site_of(catalog.v6_records().size(), 0);
      for (const web::Site& s : catalog.sites()) {
        if (s.v6_record != web::kNoV6Record) site_of[s.v6_record] = s.id;
      }
      std::size_t checked = 0;
      for (std::size_t v = 0; v < world.vantage_points.size(); ++v) {
        const Monitor& monitor = campaign->monitor(v);
        const ResolvedSiteTable& table = monitor.resolved_sites();
        std::map<std::tuple<const bgp::RibEntry*, const bgp::RibEntry*, topo::Asn>,
                 std::uint32_t>
            row_of_key;
        for (std::uint32_t record = 0; record < site_of.size(); ++record) {
          const web::Site& site = catalog.site(site_of[record]);
          for (const std::uint8_t epoch : {std::uint8_t{0}, std::uint8_t{1}}) {
            const std::uint32_t id = table.find(record, epoch);
            if (id == ResolvedSiteTable::kNoRow) continue;
            SCOPED_TRACE(testing::Message() << "vp=" << v << " site=" << site.id
                                            << " epoch=" << int{epoch});
            const ResolvedSiteRow& row = table.row(id);
            const auto [it, fresh_key] =
                row_of_key.try_emplace({row.v4_route, row.v6_route, row.island}, id);
            EXPECT_EQ(it->second, id) << "equal keys, two rows";
            std::size_t rounds = 0;
            for (std::uint32_t r = 0; r <= world.num_rounds; ++r) {
              if (catalog.hosting_epoch(site, r) != epoch || !catalog.dual_stack_at(site, r)) {
                continue;
              }
              ++rounds;
              const ResolvedSiteRow want = monitor.resolve_row(catalog.hosting_at(site, r));
              ASSERT_TRUE(row.same_key(want)) << "round " << r;
              EXPECT_EQ(row.gate, want.gate) << "round " << r;
              expect_same_path(row.v4_path, want.v4_path);
              expect_same_path(row.v6_path, want.v6_path);
            }
            EXPECT_GT(rounds, 0u) << "an entry no round of its epoch could set";
            const RoutePair pair = monitor.routes().pair(row.route_pair);
            EXPECT_EQ(monitor.routes().route(pair.v4).origin,
                      row.v4_route != nullptr ? row.v4_route->origin : topo::kNoAs);
            EXPECT_EQ(monitor.routes().route(pair.v6).origin,
                      row.v6_route != nullptr ? row.v6_route->origin : topo::kNoAs);
            ++checked;
          }
        }
      }
      EXPECT_GT(checked, 0u);
    }
  }
}

// Routes are compared by content: `ra` and `rb` are separate registries,
// so equal ids would not show equal origins or paths.
void expect_same_route(const PathRegistry& ra, RouteId a, const PathRegistry& rb,
                       RouteId b) {
  const Route x = ra.route(a);
  const Route y = rb.route(b);
  EXPECT_EQ(a == kNoRoute, b == kNoRoute);
  EXPECT_EQ(x.origin, y.origin);
  ASSERT_EQ(x.path == kNoPath, y.path == kNoPath);
  if (x.path != kNoPath) {
    EXPECT_EQ(ra.path(x.path), rb.path(y.path));
  }
}

void expect_same_observation(const Observation& a, const PathRegistry& ra,
                             const Observation& b, const PathRegistry& rb) {
  const RoutePair pa = ra.pair(a.route_pair);
  const RoutePair pb = rb.pair(b.route_pair);
  EXPECT_EQ(a.route_pair == kNoPair, b.route_pair == kNoPair);
  EXPECT_EQ(a.site, b.site);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.v4_speed_kBps, b.v4_speed_kBps);
  EXPECT_EQ(a.v6_speed_kBps, b.v6_speed_kBps);
  EXPECT_EQ(a.v4_samples, b.v4_samples);
  EXPECT_EQ(a.v6_samples, b.v6_samples);
  expect_same_route(ra, pa.v4, rb, pb.v4);
  expect_same_route(ra, pa.v6, rb, pb.v6);
}

// A Monitor reading shared table rows (resolved by resolve_sites, read by
// both passes) and a Monitor without rows (every call resolves into its
// per-call row) must agree field for field, with and without the conn
// layer reading the rows' paths.
TEST(Monitor, TableRowsMatchPerCallResolution) {
  const World& w = small_world().world;
  constexpr std::uint32_t kRound = 5;
  std::vector<std::uint32_t> dual;
  for (const web::Site& s : w.catalog.sites()) {
    if (w.catalog.dual_stack_at(s, kRound)) dual.push_back(s.id);
  }
  ASSERT_GT(dual.size(), 100u);
  for (const FallbackPolicy policy : {FallbackPolicy::kNone, FallbackPolicy::kSequential}) {
    MonitorConfig cfg;
    cfg.fallback = policy;
    for (const VantagePoint& vp : w.vantage_points) {
      SCOPED_TRACE("vp=" + vp.name + " policy=" + std::to_string(static_cast<int>(policy)));
      Monitor cached(w, vp, cfg);
      Monitor uncached(w, vp, cfg);
      cached.resolve_sites(dual, kRound);
      EXPECT_LT(cached.resolved_sites().size(), dual.size()) << "no site shares a row";
      for (const std::uint64_t pass : {0u, 1u}) {
        for (const std::uint32_t id : dual) {
          const web::Site& site = w.catalog.site(id);
          const std::uint64_t seed = (pass << 32) | id;
          const Observation a =
              cached.monitor_site(site, kRound, {}, util::Rng(seed));
          const Observation b =
              uncached.monitor_site(site, kRound, {}, util::Rng(seed));
          SCOPED_TRACE("pass=" + std::to_string(pass) + " site=" + std::to_string(id));
          expect_same_observation(a, cached.routes(), b, uncached.routes());
        }
        for (const std::uint32_t id : dual) {
          const web::Site& site = w.catalog.site(id);
          EXPECT_NE(cached.resolved_sites().find(site.v6_record,
                                                 w.catalog.hosting_epoch(site, kRound)),
                    ResolvedSiteTable::kNoRow);
        }
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
      std::uint64_t ref_queries = 0, ref_timeouts = 0, decisions = 0, timeouts = 0;
      std::uint64_t relocated_answers = 0, late_aaaa_answers = 0;
      for (std::uint32_t r = 0; r <= w.num_rounds; ++r) {
        mon.resolve_sites(all, r);
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
          const Observation obs = mon.monitor_site(site, r, loss, util::Rng(seed));
          const bool has_a = obs.status != MonitorStatus::kDnsFailed &&
                             obs.status != MonitorStatus::kV6Only;
          const bool has_aaaa = obs.status != MonitorStatus::kDnsFailed &&
                                obs.status != MonitorStatus::kV4Only;
          ASSERT_EQ(has_a, a.has_answers()) << "site " << site.id << " round " << r;
          ASSERT_EQ(has_aaaa, aaaa.has_answers()) << "site " << site.id << " round " << r;
          if (!has_a || !has_aaaa) continue;
          const std::uint32_t id =
              mon.resolved_sites().find(site.v6_record, w.catalog.hosting_epoch(site, r));
          ASSERT_NE(id, ResolvedSiteTable::kNoRow);
          const ResolvedSiteRow& row = mon.resolved_sites().row(id);
          EXPECT_EQ(row.v4_route, mon.vantage_point().rib.lookup_v4(*a.a)) << "site " << site.id;
          EXPECT_EQ(row.v6_route, mon.vantage_point().rib.lookup_v6(*aaaa.aaaa))
              << "site " << site.id;
          relocated_answers += w.catalog.hosting_epoch(site, r);
          late_aaaa_answers += w.catalog.v6_presence(site).from_round == r && r > 0;
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

// Every site's answers come from SiteCatalog::hosting_at, so the row a
// dual-stack site's index entry points at holds the RIB's routes for the
// catalog's addresses at every round of its hosting epoch: relocated
// sites move to their epoch-1 entry at the step round, and grant_aaaa
// appends a record for a site that had no AAAA. Check every set entry of
// a site dual-stack at the round against hosting_at after every round, on
// the frozen small world (direct monitor_site calls) and on an evolving
// campaign.
TEST(Monitor, FilledRowsMatchHostingAtEveryRound) {
  const auto expect_rows_match = [](const Monitor& mon, const web::SiteCatalog& catalog,
                                    std::uint32_t round) {
    std::size_t filled = 0;
    const bgp::Rib& rib = mon.vantage_point().rib;
    for (const web::Site& site : catalog.sites()) {
      if (!catalog.dual_stack_at(site, round)) continue;
      const std::uint32_t id =
          mon.resolved_sites().find(site.v6_record, catalog.hosting_epoch(site, round));
      if (id == ResolvedSiteTable::kNoRow) continue;
      ++filled;
      const web::Hosting h = catalog.hosting_at(site, round);
      const ResolvedSiteRow& row = mon.resolved_sites().row(id);
      EXPECT_EQ(row.v4_route, rib.lookup_v4(h.v4_addr)) << "site " << site.id << " round " << round;
      EXPECT_EQ(row.v6_route, rib.lookup_v6(h.v6_addr)) << "site " << site.id << " round " << round;
      EXPECT_EQ(row.island != kNotSixToFour, h.v6_addr.is_6to4()) << "site " << site.id;
    }
    return filled;
  };

  const World& w = small_world().world;
  std::size_t relocated = 0;
  for (const web::Site& s : w.catalog.sites()) {
    const web::Hosting* moved = w.catalog.relocation(s.id);
    const std::uint32_t step_round = w.catalog.dynamics(s).step_round;
    relocated += moved != nullptr && moved->v4_as != s.v4_as && step_round <= w.num_rounds &&
                 w.catalog.dual_stack_at(s, step_round);
  }
  ASSERT_GT(relocated, 0u) << "small world has no relocated dual-stack site";
  MonitorConfig cfg;
  cfg.min_downloads = 2;
  cfg.max_downloads = 2;
  for (const VantagePoint& vp : w.vantage_points) {
    SCOPED_TRACE("vp=" + vp.name);
    Monitor mon(w, vp, cfg);
    for (std::uint32_t r = 0; r <= w.num_rounds; ++r) {
      std::vector<std::uint32_t> dual;
      for (const web::Site& s : w.catalog.sites()) {
        if (w.catalog.dual_stack_at(s, r)) dual.push_back(s.id);
      }
      mon.resolve_sites(dual, r);
      for (const std::uint32_t id : dual) {
        (void)mon.monitor_site(w.catalog.site(id), r, {},
                               util::Rng((std::uint64_t{r} << 32) | id));
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
    v6_from.push_back(timeline.world().catalog.v6_presence(s).from_round);
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
    granted += timeline.world().catalog.v6_presence(s).from_round != v6_from[s.id];
  }
  EXPECT_GT(granted, 0u) << "no epoch granted an AAAA record";
}

}  // namespace
}  // namespace v6mon::core
