// The observation dump's chunked, ordered hand-off (ResultsDb::write_csv):
// its bytes at chunk boundaries against a row-at-a-time stream reference
// at 1, 2 and 4 workers, and streams that fail partway through a dump.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/results.h"
#include "reference/csv_reference.h"
#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::core {
namespace {

constexpr std::size_t kChunk = ResultsDb::kCsvChunkRows;
using csv_ref::kAllStatuses;

/// `n` rows cycling through the widest value of every field and each
/// pair of four kinds of route: none (kNoRoute), a VP-local one
/// ("(local)"), one without a path, and a 10-digit origin over a
/// three-hop path; two routes of none are kNoPair. The last two rows
/// take the largest site id.
std::vector<Observation> boundary_rows(PathRegistry& paths, std::size_t n) {
  const RouteId routes[] = {
      kNoRoute,
      paths.intern_route(64512, paths.intern({})),
      paths.intern_route(12, kNoPath),
      paths.intern_route(4000000000u, paths.intern({4294967294u, 7, 4000000000u})),
  };
  const float speeds[] = {-std::numeric_limits<float>::min(),  // "-1.17549e-38"
                          0.0f, 45.5f, 1234567.0f, 0.00012345f};
  constexpr std::uint16_t kMax16 = std::numeric_limits<std::uint16_t>::max();
  std::vector<Observation> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    Observation& o = rows[i];
    o.site = i + 2 >= n ? std::numeric_limits<std::uint32_t>::max()
                        : static_cast<std::uint32_t>(i / 3);
    o.round = i % 4 == 0 ? kMax16 : static_cast<std::uint16_t>(i % 4);
    o.status = kAllStatuses[i % 7];
    o.v4_speed_kBps = speeds[i % 5];
    o.v6_speed_kBps = speeds[(i / 5) % 5];
    o.v4_samples = i % 2 == 0 ? kMax16 : static_cast<std::uint16_t>(i % 9);
    o.v6_samples = i % 3 == 0 ? kMax16 : std::uint16_t{0};
    o.route_pair = paths.intern_pair(routes[i % 4], routes[(i / 4) % 4]);
  }
  return rows;
}

/// A finalized store of `n` boundary rows and its reference dump.
/// `edit` may change the rows before they are added.
struct Store {
  ResultsDb db;
  std::string reference;

  explicit Store(std::size_t n,
                 const std::function<void(PathRegistry&, std::vector<Observation>&)>& edit =
                     nullptr) {
    std::vector<Observation> rows = boundary_rows(db.paths(), n);
    if (edit) edit(db.paths(), rows);
    for (const Observation& o : rows) db.add(o);
    db.finalize();
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Observation& a, const Observation& b) {
                       return a.site != b.site ? a.site < b.site : a.round < b.round;
                     });
    reference = csv_ref::stream_oracle_csv(db.paths(), rows);
  }
};

std::string dump(const ResultsDb& db, std::size_t threads) {
  std::ostringstream out;
  db.write_csv(out, threads);
  return out.str();
}

TEST(CsvDump, ChunkBoundariesMatchRowAtATimeReference) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk, kChunk + 1, 5 * kChunk + 3}) {
    SCOPED_TRACE(n);
    const Store s(n);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(threads);
      EXPECT_EQ(dump(s.db, threads), s.reference);
    }
  }
}

TEST(CsvDump, WidestFieldsPrintWhole) {
  // Row 60 is the last: the largest site id and round, the longest
  // status name, both sample counts at their maximum, and a 10-digit
  // origin and path ASN.
  const Store s(61);
  const std::string csv = dump(s.db, 4);
  EXPECT_EQ(csv, s.reference);
  const std::string last =
      "4294967295,65535,v6-download-failed,-1.17549e-38,45.5,65535,65535,,4000000000,-,"
      "AS4294967294 AS7 AS4000000000\n";
  ASSERT_GE(csv.size(), last.size());
  EXPECT_EQ(csv.substr(csv.size() - last.size()), last);
}

// Chunk 0 takes far longer to format than the chunks after it, so a
// dump that wrote chunks as they were formatted, not in turn, would
// put chunk 1 first.
TEST(CsvDump, SlowFirstChunkIsStillWrittenFirst) {
  const Store s(4 * kChunk, [](PathRegistry& paths, std::vector<Observation>& rows) {
    const std::vector<topo::Asn> hops(400, 4000000000u);
    const RouteId slow = paths.intern_route(4000000000u, paths.intern(hops));
    for (std::size_t i = 0; i < kChunk; ++i) {
      rows[i].route_pair = paths.intern_pair(slow, paths.pair(rows[i].route_pair).v6);
    }
  });
  for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(dump(s.db, 4), s.reference);
}

/// Records every byte it accepts and every write call. Subclasses decide
/// how many bytes of a call to take.
class CapturingStreambuf : public std::streambuf {
 public:
  std::string got;
  std::size_t calls = 0;

 protected:
  virtual std::size_t take(std::size_t asked) = 0;

  int overflow(int c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::size_t taken = take(static_cast<std::size_t>(n));
    ++calls;
    got.append(s, taken);
    return static_cast<std::streamsize>(taken);
  }
};

/// Accepts `limit` bytes, then refuses everything: a disk that fills up
/// partway through a dump.
class FillingStreambuf : public CapturingStreambuf {
 public:
  explicit FillingStreambuf(std::size_t limit) : limit_(limit) {}

 protected:
  std::size_t take(std::size_t asked) override {
    return std::min(asked, limit_ - got.size());
  }

 private:
  std::size_t limit_;
};

/// Takes every call whole except call `short_call` (0 = the first), of
/// which it takes half: a write that returns short.
class ShortWriteStreambuf : public CapturingStreambuf {
 public:
  explicit ShortWriteStreambuf(std::size_t short_call) : short_call_(short_call) {}

 protected:
  std::size_t take(std::size_t asked) override {
    return calls == short_call_ ? asked / 2 : asked;
  }

 private:
  std::size_t short_call_;
};

/// A ten-chunk store, its reference dump, and where each chunk's bytes
/// end in it.
struct TenChunks : Store {
  std::vector<std::size_t> chunk_end;

  TenChunks() : Store(10 * kChunk) {
    // Line 0 is the header; chunk k ends with line (k + 1) * kChunk.
    std::size_t line = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (reference[i] != '\n') continue;
      if (line > 0 && line % kChunk == 0) chunk_end.push_back(i + 1);
      ++line;
    }
  }
};

/// Dump into `buf` at `threads` workers: it must end in IoError, and
/// every byte that reached the stream must be the dump's own.
void expect_io_error_prefix(const TenChunks& s, CapturingStreambuf& buf,
                            std::size_t threads) {
  std::ostream out(&buf);
  EXPECT_THROW(s.db.write_csv(out, threads), IoError);
  ASSERT_LE(buf.got.size(), s.reference.size());
  EXPECT_EQ(buf.got, s.reference.substr(0, buf.got.size()));
}

TEST(CsvDump, DiskFullInsideChunkThrowsAfterThatChunk) {
  const TenChunks s;
  ASSERT_EQ(s.chunk_end.size(), 10u);
  ASSERT_EQ(s.chunk_end.back(), s.reference.size());
  const std::size_t limit = (s.chunk_end[2] + s.chunk_end[3]) / 2;  // inside chunk 3
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    FillingStreambuf buf(limit);
    expect_io_error_prefix(s, buf, threads);
    EXPECT_EQ(buf.got.size(), limit);
    EXPECT_EQ(buf.calls, 5u);  // the header and chunks 0-3, then nothing
  }
}

TEST(CsvDump, DiskFullOnChunkBoundaryThrowsAtNextChunk) {
  const TenChunks s;
  ASSERT_EQ(s.chunk_end.size(), 10u);
  const std::size_t limit = s.chunk_end[3];  // chunks 0-3 fit exactly
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    FillingStreambuf buf(limit);
    expect_io_error_prefix(s, buf, threads);
    EXPECT_EQ(buf.got.size(), limit);
    EXPECT_EQ(buf.calls, 6u);  // chunk 4's write takes nothing and ends it
  }
}

TEST(CsvDump, ShortWriteThrowsAfterThatChunk) {
  const TenChunks s;
  ASSERT_EQ(s.chunk_end.size(), 10u);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ShortWriteStreambuf buf(4);  // call 4 writes chunk 3
    expect_io_error_prefix(s, buf, threads);
    EXPECT_EQ(buf.got.size(), s.chunk_end[2] + (s.chunk_end[3] - s.chunk_end[2]) / 2);
    EXPECT_EQ(buf.calls, 5u);
  }
}

TEST(CsvDump, FailedHeaderWritesNoRow) {
  const TenChunks s;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    FillingStreambuf buf(0);
    expect_io_error_prefix(s, buf, threads);
    EXPECT_EQ(buf.calls, 1u);
  }
}

#if V6MON_CONTRACT_LEVEL >= 1

// A worker whose chunk trips a contract check stops the dump: workers
// waiting for later turns return instead of hanging, and only rows before
// the bad chunk can have been written.
TEST(CsvDump, ContractErrorInChunkStopsEveryWorker) {
  const TenChunks good;
  ResultsDb bad;
  std::vector<Observation> rows = boundary_rows(bad.paths(), 10 * kChunk);
  rows[3 * kChunk + 5].route_pair = 999;  // never interned
  for (const Observation& o : rows) bad.add(o);
  bad.finalize();
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    FillingStreambuf buf(good.reference.size());
    std::ostream out(&buf);
    EXPECT_THROW(bad.write_csv(out, threads), ContractError);
    ASSERT_LE(buf.got.size(), good.chunk_end[2]);
    EXPECT_EQ(buf.got, good.reference.substr(0, buf.got.size()));
  }
}

#endif  // V6MON_CONTRACT_LEVEL >= 1

}  // namespace
}  // namespace v6mon::core
