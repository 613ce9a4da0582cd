// ObservationSink backends: the mutex reference, the sharded in-memory
// store, and the binary spool. The contract under test is simple to
// state and strict: whatever backend carried the observations, the
// finalized ResultsDb — rows, counters, path contents, CSV bytes — is
// identical. Rows carry pair ids of the store's registry (in a campaign,
// its vantage point's Monitor::routes()); no sink translates them.

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/results.h"
#include "core/sink.h"
#include "core/spool.h"
#include "util/error.h"

namespace v6mon::core {
namespace {

Observation sample_obs(std::uint32_t site, std::uint16_t round, PairId route_pair) {
  Observation o;
  o.site = site;
  o.round = round;
  o.status = MonitorStatus::kMeasured;
  o.v4_speed_kBps = 120.5f + static_cast<float>(site);
  o.v6_speed_kBps = 88.25f + static_cast<float>(round);
  o.v4_samples = 5;
  o.v6_samples = 4;
  o.route_pair = route_pair;
  return o;
}

/// A spool path private to the running test: ctest runs each test as its
/// own process, so a shared file name would let concurrent tests
/// truncate or delete each other's spool.
std::string test_spool_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + stem + "-" + info->test_suite_name() + "." +
         info->name() + ".spool";
}

/// Drive any sink through two epochs with a handful of observations and
/// counters, mimicking what campaign rounds do: pairs are interned into
/// `source` (the registry the sink's rows refer to) as resolved-row fills
/// intern them. The first epoch counts round `first`, the second round
/// `second` (either may be the lower).
void drive(ObservationSink& sink, PathRegistry& source, std::uint16_t first = 0,
           std::uint16_t second = 1) {
  ObservationSink::Lane& lane = sink.lane();
  const RouteId a = source.intern_route(7, source.intern({1, 2, 3}));
  const RouteId b = source.intern_route(9, source.intern({1, 2, 4}));
  const RouteId local = source.intern_route(9, source.intern({}));
  lane.record(sample_obs(10, first, source.intern_pair(a, b)));
  lane.record(sample_obs(11, first, source.intern_pair(b, local)));
  // A VP without AS paths: origins only.
  Observation pathless = sample_obs(
      12, first,
      source.intern_pair(source.intern_route(7, kNoPath), source.intern_route(9, kNoPath)));
  pathless.status = MonitorStatus::kV6DownloadFailed;
  lane.record(pathless);
  lane.count(first, MonitorStatus::kMeasured);
  lane.count(first, MonitorStatus::kMeasured);
  lane.count(first, MonitorStatus::kV6DownloadFailed);
  lane.count(first, MonitorStatus::kV4Only);
  sink.count_listed(first, 40);
  sink.flush();

  // Second epoch: revisit one site, one new path, a new round's counters.
  ObservationSink::Lane& lane2 = sink.lane();
  const RouteId c = source.intern_route(8, source.intern({9, 8}));
  lane2.record(sample_obs(10, second, source.intern_pair(c, c)));
  lane2.record(sample_obs(13, second, source.intern_pair(kNoRoute, c)));
  lane2.count(second, MonitorStatus::kMeasured);
  sink.count_listed(second, 41);
  sink.finish();
}

void expect_same_counters(const ResultsDb& got, const ResultsDb& want) {
  ASSERT_EQ(got.rounds(), want.rounds());
  // One round past the end too: both must read it as zero.
  for (std::uint32_t r = 0; r <= want.rounds(); ++r) {
    const RoundCounters& a = got.round_counters(r);
    const RoundCounters& b = want.round_counters(r);
    EXPECT_EQ(a.listed, b.listed) << "round " << r;
    EXPECT_EQ(a.v4_only, b.v4_only) << "round " << r;
    EXPECT_EQ(a.v6_only, b.v6_only) << "round " << r;
    EXPECT_EQ(a.dual, b.dual) << "round " << r;
    EXPECT_EQ(a.dns_failed, b.dns_failed) << "round " << r;
    EXPECT_EQ(a.measured, b.measured) << "round " << r;
    EXPECT_EQ(a.different_content, b.different_content) << "round " << r;
    EXPECT_EQ(a.download_failed, b.download_failed) << "round " << r;
  }
}

void expect_same_finalized(const ResultsDb& a, const ResultsDb& b) {
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.num_sites(), b.num_sites());
  EXPECT_EQ(a.site_ids(), b.site_ids());
  EXPECT_EQ(a.paths().size(), b.paths().size());
  EXPECT_EQ(a.paths().route_count(), b.paths().route_count());
  EXPECT_EQ(a.paths().pair_count(), b.paths().pair_count());
  expect_same_counters(a, b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(Sink, ShardedMatchesMutexReference) {
  ResultsDb mdb, sdb;
  MutexSink msink(mdb);
  ShardedSink ssink(sdb);
  drive(msink, mdb.paths());
  drive(ssink, sdb.paths());
  mdb.finalize();
  sdb.finalize();
  expect_same_finalized(mdb, sdb);
  EXPECT_EQ(ssink.shard_count(), 1u);  // single-threaded drive: one shard
}

// A vantage point's two stores (regular and W6D) read the VP's one
// registry: whatever the backend, a row keeps the pair id it was recorded
// with, and no store adds a path, route or pair of its own. The spool
// writes the registry's path ids, so a replay into a store on the same
// registry finds every pair it interns already there.
TEST(Sink, RowsKeepTheirRegistryPairIds) {
  const auto vp = std::make_shared<PathRegistry>();
  const RouteId kept = vp->intern_route(7, vp->intern({1, 2, 7}));
  const RouteId pathless = vp->intern_route(9, kNoPath);
  const PairId recorded = vp->intern_pair(kept, pathless);
  // Never recorded: a pair over a path and a route no row uses.
  (void)vp->intern_pair(vp->intern_route(8, vp->intern({5, 6, 8})), kept);
  const std::string path = test_spool_path("shared");
  const auto feed = [&](ObservationSink& sink) {
    sink.lane().record(sample_obs(10, 0, recorded));
    sink.lane().record(sample_obs(11, 0, recorded));
    sink.lane().record(sample_obs(12, 0, kNoPair));
    sink.finish();
  };
  ResultsDb mdb(vp), sdb(vp), pdb(vp);
  MutexSink msink(mdb);
  ShardedSink ssink(sdb);
  feed(msink);
  feed(ssink);
  {
    SpoolSink spool(path, *vp);
    feed(spool);
    EXPECT_TRUE(spool.ok());
  }
  replay_spool_file(path, pdb);
  std::remove(path.c_str());
  for (ResultsDb* db : {&mdb, &sdb, &pdb}) {
    db->finalize();
    EXPECT_EQ(&db->paths(), vp.get());
    EXPECT_EQ(db->series(10)[0].route_pair, recorded);
    EXPECT_EQ(db->series(11)[0].route_pair, recorded);
    EXPECT_EQ(db->series(12)[0].route_pair, kNoPair);
  }
  EXPECT_TRUE(vp->frozen());
  EXPECT_EQ(vp->size(), 2u);
  EXPECT_EQ(vp->route_count(), 3u);
  EXPECT_EQ(vp->pair_count(), 2u);
  EXPECT_EQ(mdb.to_csv(), pdb.to_csv());
  EXPECT_EQ(sdb.to_csv(), pdb.to_csv());
}

TEST(Sink, SpoolRoundTripMatchesMutexReference) {
  const std::string path = test_spool_path("roundtrip");
  ResultsDb mdb, sdb;
  MutexSink msink(mdb);
  drive(msink, mdb.paths());
  {
    PathRegistry source;
    SpoolSink spool(path, source);
    drive(spool, source);
    EXPECT_TRUE(spool.ok());
  }
  replay_spool_file(path, sdb);
  mdb.finalize();
  sdb.finalize();
  expect_same_finalized(mdb, sdb);
  std::remove(path.c_str());
}

// A store whose first counted round is late, then a lower one: the round
// array starts at the lowest round counted, and every backend must still
// report the same rounds() and the same counters for every round, zero
// below the first.
TEST(Sink, LateFirstRoundMatchesAcrossBackends) {
  const std::string path = test_spool_path("late");
  ResultsDb mdb, sdb, pdb;
  MutexSink msink(mdb);
  ShardedSink ssink(sdb);
  drive(msink, mdb.paths(), 1200, 700);
  drive(ssink, sdb.paths(), 1200, 700);
  {
    PathRegistry source;
    SpoolSink spool(path, source);
    drive(spool, source, 1200, 700);
    EXPECT_TRUE(spool.ok());
  }
  replay_spool_file(path, pdb);
  mdb.finalize();
  sdb.finalize();
  pdb.finalize();
  ASSERT_EQ(mdb.rounds(), 1201u);
  EXPECT_EQ(mdb.round_counters(1200).listed, 40u);
  EXPECT_EQ(mdb.round_counters(1200).measured, 2u);
  EXPECT_EQ(mdb.round_counters(700).listed, 41u);
  EXPECT_EQ(mdb.round_counters(699).listed, 0u);
  EXPECT_EQ(mdb.round_counters(701).listed, 0u);
  {
    SCOPED_TRACE("sharded");
    expect_same_finalized(sdb, mdb);
  }
  {
    SCOPED_TRACE("spool");
    expect_same_finalized(pdb, mdb);
  }
  std::remove(path.c_str());
}

// A thread that feeds more sinks in turn than its lane cache holds misses
// the cache on every pass; each miss must find the thread's shard again,
// not mint another one.
TEST(Sink, OneShardPerThreadAfterLaneCacheEviction) {
  constexpr std::size_t kSinks = 20;  // more than the lane cache holds
  constexpr std::uint32_t kPasses = 5;
  std::deque<ResultsDb> dbs(kSinks);
  std::vector<std::unique_ptr<ShardedSink>> sinks;
  for (ResultsDb& db : dbs) sinks.push_back(std::make_unique<ShardedSink>(db));
  for (std::uint32_t pass = 0; pass < kPasses; ++pass) {
    for (const auto& sink : sinks) {
      sink->lane().count(pass, MonitorStatus::kV4Only);
      sink->flush();
    }
  }
  for (std::size_t i = 0; i < kSinks; ++i) {
    EXPECT_EQ(sinks[i]->shard_count(), 1u) << "sink " << i;
    for (std::uint32_t pass = 0; pass < kPasses; ++pass) {
      EXPECT_EQ(dbs[i].round_counters(pass).v4_only, 1u) << "sink " << i;
    }
  }
}

// --- Counter window ---------------------------------------------------------
//
// Each ingest epoch counts one round, so a shard's counter window holds
// that round and no other: after every flush the sink's staging bytes stay
// at one round's counters however late the round. The epochs record no
// rows, so bytes() is the window alone.

void expect_one_round_window(ObservationSink& sink) {
  constexpr std::uint32_t kEpochs = 1500;
  for (std::uint32_t round = 0; round < kEpochs; ++round) {
    ObservationSink::Lane& lane = sink.lane();
    lane.count(round, MonitorStatus::kV4Only);
    lane.count_n(round, MonitorStatus::kMeasured, round % 3);
    sink.count_listed(round, 1 + round % 3);
    sink.flush();
    ASSERT_LE(sink.bytes(), sizeof(RoundCounters)) << "after round " << round;
  }
  sink.finish();
}

TEST(Sink, ShardedCounterWindowHoldsOneEpoch) {
  ResultsDb db;
  ShardedSink sink(db);
  expect_one_round_window(sink);
  ASSERT_EQ(db.rounds(), 1500u);
  for (std::uint32_t r = 0; r < 1500; ++r) {
    EXPECT_EQ(db.round_counters(r).v4_only, 1u) << "round " << r;
    EXPECT_EQ(db.round_counters(r).measured, r % 3) << "round " << r;
  }
}

TEST(Sink, SpoolCounterWindowHoldsOneEpoch) {
  const std::string path = test_spool_path("window");
  ResultsDb mdb, sdb;
  {
    const PathRegistry source;
    SpoolSink spool(path, source);
    expect_one_round_window(spool);
    EXPECT_TRUE(spool.ok());
  }
  MutexSink msink(mdb);
  expect_one_round_window(msink);
  replay_spool_file(path, sdb);
  expect_same_counters(sdb, mdb);
  std::remove(path.c_str());
}

// --- Flush range ------------------------------------------------------------
//
// A shard flushes only the rounds it counted since its last flush. These
// epochs touch a wide range with a gap, count a low round after a high
// one and a high one after a low one, revisit a flushed round, and flush
// with no traffic at all: a range that missed a round would drop or
// delay its counts, and a flush that did not zero what it merged would
// add it again on the next flush.

using Epoch = std::function<void(ObservationSink&)>;

const std::vector<Epoch>& range_epochs() {
  static const std::vector<Epoch> epochs = {
      [](ObservationSink& sink) {
        ObservationSink::Lane& lane = sink.lane();
        lane.record(sample_obs(10, 3, kNoPair));
        lane.count(1200, MonitorStatus::kMeasured);
        lane.count_n(3, MonitorStatus::kV4Only, 5);
        lane.count(3, MonitorStatus::kDifferentContent);
        sink.count_listed(3, 7);
      },
      [](ObservationSink& sink) {
        ObservationSink::Lane& lane = sink.lane();
        lane.count(7, MonitorStatus::kDnsFailed);
        lane.count_n(8, MonitorStatus::kV6Only, 2);
        lane.count_n(9, MonitorStatus::kV4Only, 0);  // counts nothing, touches nothing
      },
      [](ObservationSink&) {},  // an empty epoch
      [](ObservationSink& sink) {
        sink.lane().count(1200, MonitorStatus::kV6DownloadFailed);
      },
      [](ObservationSink&) {},  // no traffic: must change nothing
  };
  return epochs;
}

TEST(Sink, ShardedFlushMergesTouchedRoundsOnly) {
  ResultsDb mdb, sdb;
  MutexSink msink(mdb);
  ShardedSink ssink(sdb);
  // Lock-step: after every flush the store equals the reference.
  for (std::size_t e = 0; e < range_epochs().size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    range_epochs()[e](msink);
    range_epochs()[e](ssink);
    msink.flush();
    ssink.flush();
    expect_same_counters(sdb, mdb);
  }
  ASSERT_EQ(mdb.rounds(), 1201u);
  EXPECT_EQ(mdb.round_counters(3).v4_only, 5u);
  EXPECT_EQ(mdb.round_counters(8).v6_only, 2u);
  EXPECT_EQ(mdb.round_counters(1200).dual, 2u);
  ssink.finish();
  mdb.finalize();
  sdb.finalize();
  expect_same_finalized(mdb, sdb);
}

TEST(Sink, SpoolFlushMergesTouchedRoundsOnly) {
  const std::string path = test_spool_path("ranges");
  ResultsDb mdb, sdb;
  MutexSink msink(mdb);
  {
    const PathRegistry source;
    SpoolSink spool(path, source);
    for (const Epoch& epoch : range_epochs()) {
      epoch(msink);
      epoch(spool);
      spool.flush();
    }
    spool.finish();
    EXPECT_TRUE(spool.ok());
  }
  replay_spool_file(path, sdb);
  expect_same_counters(sdb, mdb);
  mdb.finalize();
  sdb.finalize();
  expect_same_finalized(mdb, sdb);
  std::remove(path.c_str());
}

TEST(Sink, SpoolWriterRejectsUnopenablePath) {
  EXPECT_THROW(SpoolWriter("/nonexistent-dir-v6mon/x.spool"), v6mon::Error);
  ResultsDb db;
  EXPECT_THROW(replay_spool_file("/nonexistent-dir-v6mon/x.spool", db),
               v6mon::Error);
}

// A spool on a full disk: the writes fail inside the stream's buffer,
// and finish() must say so instead of leaving a truncated file for the
// replay to trip over.
TEST(Sink, SpoolFinishThrowsOnFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const PathRegistry source;
  SpoolSink spool("/dev/full", source);
  for (std::uint32_t site = 0; site < 5000; ++site) {
    spool.lane().record(sample_obs(site, 0, kNoPair));
  }
  try {
    spool.finish();
    ADD_FAILURE() << "finish() on a full disk did not throw";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(spool.ok());
}

// --- Malformed spool streams ----------------------------------------------

std::string valid_spool_bytes() {
  const std::string path = test_spool_path("valid");
  {
    PathRegistry source;
    SpoolSink spool(path, source);
    drive(spool, source);
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  return buf.str();
}

void expect_replay_throws(const std::string& bytes) {
  std::istringstream in(bytes);
  ResultsDb db;
  EXPECT_THROW(replay_spool(in, db), v6mon::Error);
}

TEST(Sink, ReplayRejectsBadMagic) {
  std::string bytes = valid_spool_bytes();
  bytes[0] = 'X';
  expect_replay_throws(bytes);
}

TEST(Sink, ReplayRejectsTruncation) {
  const std::string bytes = valid_spool_bytes();
  // Chop anywhere after the magic: mid-record, mid-header, or right
  // before the end record — every cut must be detected.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 9, std::size_t{9}, std::size_t{20}}) {
    ASSERT_LT(keep, bytes.size());
    ASSERT_GT(keep, std::size_t{8});
    expect_replay_throws(bytes.substr(0, keep));
  }
}

TEST(Sink, ReplayRejectsTrailingGarbage) {
  expect_replay_throws(valid_spool_bytes() + '\0');
}

TEST(Sink, ReplayRejectsUndefinedPathId) {
  // Header + one observation whose v4 path id (0) was never defined.
  std::string bytes = "V6SPOOL1";
  bytes += '\x02';                         // Obs tag
  bytes += std::string(8, '\0');           // site, round
  bytes += '\x06';                         // status = kMeasured
  bytes += std::string(8, '\0');           // speed bits
  bytes += std::string(4, '\0');           // sample counts
  bytes += std::string(4, '\0');           // v4 path id = 0 (undefined)
  bytes += "\xff\xff\xff\xff";             // v6 path id = none
  bytes += std::string(8, '\0');           // origins
  expect_replay_throws(bytes);
}

/// Header, one observation at `round` (no routes), and the end record.
std::string one_obs_spool(std::uint32_t round) {
  std::string bytes = "V6SPOOL1";
  bytes += '\x02';                           // Obs tag
  bytes += std::string(4, '\0');             // site
  for (int i = 0; i < 4; ++i) bytes += static_cast<char>((round >> (8 * i)) & 0xff);
  bytes += '\x06';                           // status = kMeasured
  bytes += std::string(12, '\0');            // speed bits, sample counts
  bytes += std::string(8, '\xff');           // v4 / v6 path id = none
  bytes += std::string(4, '\0');             // v4 origin = AS0
  bytes += "\xff\xff\xff\xff";               // v6 origin = none
  bytes += '\x04';                           // End tag
  bytes += '\x01' + std::string(7, '\0');    // one observation
  return bytes;
}

// Observation rows keep the round in 16 bits: the largest round replays
// as itself, and the next one is rejected rather than wrapped to 0.
TEST(Sink, ReplayRejectsRoundBeyondObservationRange) {
  {
    std::istringstream in(one_obs_spool(65535));
    ResultsDb db;
    replay_spool(in, db);
    db.finalize();
    ASSERT_EQ(db.series(0).size(), 1u);
    EXPECT_EQ(db.series(0)[0].round, 65535u);
    const RoutePair pair = db.paths().pair(db.series(0)[0].route_pair);
    EXPECT_EQ(db.paths().route(pair.v4).origin, 0u);
    EXPECT_EQ(db.paths().route(pair.v6).origin, topo::kNoAs);
    EXPECT_EQ(db.to_csv().substr(db.to_csv().find('\n') + 1),
              "0,65535,measured,0,0,0,0,0,,-,-\n");
  }
  std::istringstream in(one_obs_spool(65536));
  ResultsDb db;
  try {
    replay_spool(in, db);
    ADD_FAILURE() << "round 65536 replayed";
  } catch (const v6mon::Error& e) {
    EXPECT_STREQ(e.what(), "spool: round out of range");
  }
}

/// Header, one counter record for round 0 per entry of `listed` (every
/// other field zero), and the end record.
std::string counters_spool(std::initializer_list<std::uint64_t> listed) {
  std::string bytes = "V6SPOOL1";
  for (const std::uint64_t n : listed) {
    bytes += '\x03';                          // Counters tag
    bytes += std::string(4, '\0');            // round 0
    for (int i = 0; i < 8; ++i) bytes += static_cast<char>((n >> (8 * i)) & 0xff);
    bytes += std::string(7 * 8, '\0');        // the other seven fields
  }
  bytes += '\x04';                            // End tag
  bytes += std::string(8, '\0');              // no observations
  return bytes;
}

// Counters are u64 on disk and u32 in memory: a delta, or a sum of
// deltas for one round, beyond 32 bits is rejected, not wrapped.
TEST(Sink, ReplayRejectsRoundCounterOverflow) {
  {
    std::istringstream in(counters_spool({0xffff'fffeu, 1}));
    ResultsDb db;
    replay_spool(in, db);
    EXPECT_EQ(db.round_counters(0).listed, 0xffff'ffffu);
  }
  for (const auto& listed : {std::initializer_list<std::uint64_t>{0x1'0000'0000u},
                             std::initializer_list<std::uint64_t>{0xffff'ffffu, 1}}) {
    std::istringstream in(counters_spool(listed));
    ResultsDb db;
    try {
      replay_spool(in, db);
      ADD_FAILURE() << "an overflowing counter replayed";
    } catch (const v6mon::Error& e) {
      EXPECT_STREQ(e.what(), "spool: round counter out of range");
    }
  }
}

TEST(Sink, ReplayRejectsMissingEndRecord) {
  // A header-only stream never saw finish(): treat as truncated.
  expect_replay_throws("V6SPOOL1");
}

}  // namespace
}  // namespace v6mon::core
