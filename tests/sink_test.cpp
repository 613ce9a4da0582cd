// The two ingest targets of a campaign round: the in-memory ResultsDb
// (merge_rows + merge_counters) and the binary spool (SpoolSink::ingest,
// replayed at finalize). The contract under test is simple to state and
// strict: whichever target took the batches, the finalized ResultsDb —
// rows, counters, path contents, CSV bytes — is identical. Rows carry pair
// ids of the store's registry (in a campaign, its vantage point's
// Monitor::routes()); neither target translates them.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/results.h"
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

/// One round's ingest, as Campaign hands it to a store: the recorded rows
/// and the round's counter delta.
struct Batch {
  std::uint32_t round = 0;
  std::vector<Observation> rows;
  RoundCounters delta;
};

void ingest(ResultsDb& db, const Batch& b) {
  db.merge_rows(b.rows);
  db.merge_counters(b.round, std::span(&b.delta, 1));
}

void ingest(SpoolSink& spool, const Batch& b) { spool.ingest(b.round, b.rows, b.delta); }

/// Ingest two rounds with a handful of observations and counters through
/// `ingest`, mimicking what campaign rounds do: pairs are interned into
/// `source` (the registry the rows refer to) as resolved-row fills intern
/// them, the second round's after the first round was ingested. The first
/// round is `first`, the second `second` (either may be the lower).
template <typename Ingest>
void drive(PathRegistry& source, Ingest&& ingest, std::uint16_t first = 0,
           std::uint16_t second = 1) {
  Batch one;
  one.round = first;
  const RouteId a = source.intern_route(7, source.intern({1, 2, 3}));
  const RouteId b = source.intern_route(9, source.intern({1, 2, 4}));
  const RouteId local = source.intern_route(9, source.intern({}));
  one.rows.push_back(sample_obs(10, first, source.intern_pair(a, b)));
  one.rows.push_back(sample_obs(11, first, source.intern_pair(b, local)));
  // A VP without AS paths: origins only.
  Observation pathless = sample_obs(
      12, first,
      source.intern_pair(source.intern_route(7, kNoPath), source.intern_route(9, kNoPath)));
  pathless.status = MonitorStatus::kV6DownloadFailed;
  one.rows.push_back(pathless);
  apply_status(one.delta, MonitorStatus::kMeasured, 2);
  apply_status(one.delta, MonitorStatus::kV6DownloadFailed);
  apply_status(one.delta, MonitorStatus::kV4Only);
  one.delta.listed = 40;
  ingest(one);

  // Second round: revisit one site, one new path, a new round's counters.
  Batch two;
  two.round = second;
  const RouteId c = source.intern_route(8, source.intern({9, 8}));
  two.rows.push_back(sample_obs(10, second, source.intern_pair(c, c)));
  two.rows.push_back(sample_obs(13, second, source.intern_pair(kNoRoute, c)));
  apply_status(two.delta, MonitorStatus::kMeasured);
  two.delta.listed = 41;
  ingest(two);
}

/// drive() into an in-memory store on its own registry.
void drive(ResultsDb& db, std::uint16_t first = 0, std::uint16_t second = 1) {
  drive(db.paths(), [&db](const Batch& b) { ingest(db, b); }, first, second);
}

/// drive() into a spool at `path`, then close it.
void drive_spool(const std::string& path, std::uint16_t first = 0, std::uint16_t second = 1) {
  PathRegistry source;
  SpoolSink spool(path, source);
  drive(source, [&spool](const Batch& b) { ingest(spool, b); }, first, second);
  spool.finish();
  EXPECT_TRUE(spool.ok());
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

// A vantage point's two stores (regular and W6D) read the VP's one
// registry: whichever target took the rows, a row keeps the pair id it
// was recorded with, and no store adds a path, route or pair of its own.
// The spool writes the registry's path ids, so a replay into a store on
// the same registry finds every pair it interns already there.
TEST(Sink, RowsKeepTheirRegistryPairIds) {
  const auto vp = std::make_shared<PathRegistry>();
  const RouteId kept = vp->intern_route(7, vp->intern({1, 2, 7}));
  const RouteId pathless = vp->intern_route(9, kNoPath);
  const PairId recorded = vp->intern_pair(kept, pathless);
  // Never recorded: a pair over a path and a route no row uses.
  (void)vp->intern_pair(vp->intern_route(8, vp->intern({5, 6, 8})), kept);
  const std::string path = test_spool_path("shared");
  Batch batch;
  batch.rows = {sample_obs(10, 0, recorded), sample_obs(11, 0, recorded),
                sample_obs(12, 0, kNoPair)};
  ResultsDb mdb(vp), pdb(vp);
  ingest(mdb, batch);
  {
    SpoolSink spool(path, *vp);
    ingest(spool, batch);
    spool.finish();
    EXPECT_TRUE(spool.ok());
  }
  replay_spool_file(path, pdb);
  std::remove(path.c_str());
  for (ResultsDb* db : {&mdb, &pdb}) {
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
}

TEST(Sink, SpoolRoundTripMatchesMutexReference) {
  const std::string path = test_spool_path("roundtrip");
  ResultsDb mdb, sdb;
  drive(mdb);
  drive_spool(path);
  replay_spool_file(path, sdb);
  mdb.finalize();
  sdb.finalize();
  expect_same_finalized(mdb, sdb);
  std::remove(path.c_str());
}

// A store whose first counted round is late, then a lower one: the round
// array starts at the lowest round counted, and both targets must still
// report the same rounds() and the same counters for every round, zero
// below the first.
TEST(Sink, LateFirstRoundMatchesAcrossBackends) {
  const std::string path = test_spool_path("late");
  ResultsDb mdb, pdb;
  drive(mdb, 1200, 700);
  drive_spool(path, 1200, 700);
  replay_spool_file(path, pdb);
  mdb.finalize();
  pdb.finalize();
  ASSERT_EQ(mdb.rounds(), 1201u);
  EXPECT_EQ(mdb.round_counters(1200).listed, 40u);
  EXPECT_EQ(mdb.round_counters(1200).measured, 2u);
  EXPECT_EQ(mdb.round_counters(700).listed, 41u);
  EXPECT_EQ(mdb.round_counters(699).listed, 0u);
  EXPECT_EQ(mdb.round_counters(701).listed, 0u);
  expect_same_finalized(pdb, mdb);
  std::remove(path.c_str());
}

// A round that lists no site and records nothing still is a round of the
// store: the spool writes its all-zero Counters record, so the replay
// reports the same rounds() as the in-memory store.
TEST(Sink, EmptyRoundCountsAlikeInBothTargets) {
  const std::string path = test_spool_path("empty");
  Batch empty;
  empty.round = 9;
  ResultsDb mdb, pdb;
  ingest(mdb, empty);
  {
    const PathRegistry source;
    SpoolSink spool(path, source);
    ingest(spool, empty);
    spool.finish();
  }
  replay_spool_file(path, pdb);
  std::remove(path.c_str());
  EXPECT_EQ(mdb.rounds(), 10u);
  expect_same_counters(pdb, mdb);
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
  Batch batch;
  for (std::uint32_t site = 0; site < 5000; ++site) {
    batch.rows.push_back(sample_obs(site, 0, kNoPair));
  }
  ingest(spool, batch);
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
  drive_spool(path);
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
