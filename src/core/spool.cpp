#include "core/spool.h"

#include <cstring>
#include <limits>
#include <vector>

#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::core {

namespace {

constexpr char kMagic[8] = {'V', '6', 'S', 'P', 'O', 'O', 'L', '1'};
constexpr std::uint8_t kTagPathDef = 0x01;
constexpr std::uint8_t kTagObs = 0x02;
constexpr std::uint8_t kTagCounters = 0x03;
constexpr std::uint8_t kTagEnd = 0x04;

/// Replay-side sanity caps. A spool is untrusted bytes (tests/fuzz/
/// fuzz_spool.cpp), and ResultsDb sizes its round-counter table from
/// the lowest to the largest round it sees — without the round cap two
/// counter records claiming rounds 0 and 2^32-1 make replay resize to a
/// 256 GB table. The limits are far above anything a real campaign
/// writes (the paper catalog is 1M sites over ~370 rounds) but small
/// enough that a hostile spool cannot cost more memory than its own
/// byte count.
constexpr std::uint32_t kMaxReplayHops = 1024;        ///< AS paths are dozens.
/// Site ids size no table (the store keeps only the sites it holds);
/// the cap stays as an input bound on what a campaign can write.
constexpr std::uint32_t kMaxReplaySite = 1u << 24;    ///< 16M site ids.
constexpr std::uint32_t kMaxReplayRound = 1u << 20;   ///< 1M rounds.
/// An observation's round is stored in 16 bits: a larger one must fail,
/// not wrap onto another round.
constexpr std::uint32_t kMaxReplayObsRound =
    std::numeric_limits<decltype(Observation::round)>::max();

std::uint32_t float_bits(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

float bits_float(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Little-endian reader over an istream with hard failure on short reads.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(&in) {}

  bool read_tag(std::uint8_t& tag) {
    const int c = in_->get();
    if (c == std::char_traits<char>::eof()) return false;
    tag = static_cast<std::uint8_t>(c);
    return true;
  }
  std::uint8_t u8() { return bytes<std::uint8_t, 1>(); }
  std::uint16_t u16() { return bytes<std::uint16_t, 2>(); }
  std::uint32_t u32() { return bytes<std::uint32_t, 4>(); }
  std::uint64_t u64() { return bytes<std::uint64_t, 8>(); }

 private:
  template <typename T, std::size_t N>
  T bytes() {
    unsigned char buf[N];
    in_->read(reinterpret_cast<char*>(buf), N);
    if (in_->gcount() != static_cast<std::streamsize>(N)) {
      throw Error("spool: truncated record");
    }
    T v = 0;
    for (std::size_t i = 0; i < N; ++i) {
      v = static_cast<T>(v | (static_cast<T>(buf[i]) << (8 * i)));
    }
    return v;
  }

  std::istream* in_;
};

}  // namespace

// --- SpoolWriter ------------------------------------------------------------

SpoolWriter::SpoolWriter(const std::string& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw Error("spool: cannot open '" + path + "' for writing");
  out_.write(kMagic, sizeof(kMagic));
}

SpoolWriter::~SpoolWriter() { close(); }

void SpoolWriter::u8(std::uint8_t v) {
  out_.put(static_cast<char>(v));
}

void SpoolWriter::u16(std::uint16_t v) {
  char buf[2] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff)};
  out_.write(buf, sizeof(buf));
}

void SpoolWriter::u32(std::uint32_t v) {
  char buf[4];
  for (std::size_t i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out_.write(buf, sizeof(buf));
}

void SpoolWriter::u64(std::uint64_t v) {
  char buf[8];
  for (std::size_t i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out_.write(buf, sizeof(buf));
}

void SpoolWriter::path_def(std::span<const topo::Asn> path) {
  V6MON_REQUIRE(!closed_, "spool: write after close");
  u8(kTagPathDef);
  u32(static_cast<std::uint32_t>(path.size()));
  for (topo::Asn hop : path) u32(hop);
}

void SpoolWriter::observation(const Observation& obs, const PathRegistry& routes) {
  V6MON_REQUIRE(!closed_, "spool: write after close");
  const RoutePair pair = routes.pair(obs.route_pair);
  const Route v4 = routes.route(pair.v4);
  const Route v6 = routes.route(pair.v6);
  u8(kTagObs);
  u32(obs.site);
  u32(obs.round);
  u8(static_cast<std::uint8_t>(obs.status));
  u32(float_bits(obs.v4_speed_kBps));
  u32(float_bits(obs.v6_speed_kBps));
  u16(obs.v4_samples);
  u16(obs.v6_samples);
  u32(v4.path);
  u32(v6.path);
  u32(v4.origin);
  u32(v6.origin);
  ++observations_;
}

void SpoolWriter::counters(std::uint32_t round, const RoundCounters& delta) {
  V6MON_REQUIRE(!closed_, "spool: write after close");
  u8(kTagCounters);
  u32(round);
  u64(delta.listed);
  u64(delta.v4_only);
  u64(delta.v6_only);
  u64(delta.dual);
  u64(delta.dns_failed);
  u64(delta.measured);
  u64(delta.different_content);
  u64(delta.download_failed);
}

void SpoolWriter::close() {
  if (closed_) return;
  u8(kTagEnd);
  u64(observations_);
  out_.flush();
  closed_ = true;
  out_.close();
}

// --- SpoolSink --------------------------------------------------------------

void SpoolSink::ingest(std::uint32_t round, std::span<const Observation> rows,
                       const RoundCounters& delta) {
  // Define the paths interned since the last batch, in id order, before
  // any row can reference them.
  for (const std::size_t total = routes_->size(); defined_paths_ < total; ++defined_paths_) {
    writer_.path_def(routes_->path(static_cast<PathId>(defined_paths_)));
  }
  for (const Observation& o : rows) writer_.observation(o, *routes_);
  writer_.counters(round, delta);
}

void SpoolSink::finish() {
  writer_.close();
  if (!writer_.ok()) throw IoError("spool: write to '" + writer_.path() + "' failed");
}

// --- Replay -----------------------------------------------------------------

void replay_spool(std::istream& in, ResultsDb& db) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw Error("spool: bad magic (not a v6mon spool, or truncated header)");
  }

  Reader r(in);
  std::vector<PathId> spool_to_db;  ///< Spool id -> database registry id.
  std::vector<topo::Asn> path_buf;
  // One family's (spool path id, origin) fields as a database route.
  const auto replay_route = [&](std::uint32_t spool_path, topo::Asn origin,
                                const char* undefined) -> RouteId {
    PathId path = kNoPath;
    if (spool_path != kNoPath) {
      if (spool_path >= spool_to_db.size()) throw Error(undefined);
      path = spool_to_db[spool_path];
    }
    if (path == kNoPath && origin == topo::kNoAs) return kNoRoute;
    return db.paths().intern_route(origin, path);
  };
  std::uint64_t observations = 0;
  bool ended = false;

  std::uint8_t tag = 0;
  while (r.read_tag(tag)) {
    if (ended) throw Error("spool: data after end record");
    switch (tag) {
      case kTagPathDef: {
        const std::uint32_t hops = r.u32();
        if (hops > kMaxReplayHops) throw Error("spool: implausible path length");
        path_buf.clear();
        for (std::uint32_t i = 0; i < hops; ++i) path_buf.push_back(r.u32());
        spool_to_db.push_back(db.paths().intern(path_buf));
        break;
      }
      case kTagObs: {
        Observation o;
        o.site = r.u32();
        const std::uint32_t round = r.u32();
        if (o.site > kMaxReplaySite) throw Error("spool: site id out of range");
        if (round > kMaxReplayObsRound) throw Error("spool: round out of range");
        o.round = static_cast<std::uint16_t>(round);
        const std::uint8_t status = r.u8();
        if (status > static_cast<std::uint8_t>(MonitorStatus::kMeasured)) {
          throw Error("spool: invalid observation status");
        }
        o.status = static_cast<MonitorStatus>(status);
        o.v4_speed_kBps = bits_float(r.u32());
        o.v6_speed_kBps = bits_float(r.u32());
        o.v4_samples = r.u16();
        o.v6_samples = r.u16();
        const std::uint32_t v4_path = r.u32();
        const std::uint32_t v6_path = r.u32();
        const topo::Asn v4_origin = r.u32();
        const topo::Asn v6_origin = r.u32();
        const RouteId v4 = replay_route(v4_path, v4_origin, "spool: undefined v4 path id");
        o.route_pair = db.paths().intern_pair(
            v4, replay_route(v6_path, v6_origin, "spool: undefined v6 path id"));
        db.add(o);
        ++observations;
        break;
      }
      case kTagCounters: {
        const std::uint32_t round = r.u32();
        if (round > kMaxReplayRound) throw Error("spool: round out of range");
        // Each field must keep the round's merged count within 32 bits.
        const RoundCounters& have = db.round_counters(round);
        const auto field = [&r](std::uint32_t had) {
          const std::uint64_t v = r.u64();
          if (v > std::numeric_limits<std::uint32_t>::max() - had) {
            throw Error("spool: round counter out of range");
          }
          return static_cast<std::uint32_t>(v);
        };
        RoundCounters delta;
        delta.listed = field(have.listed);
        delta.v4_only = field(have.v4_only);
        delta.v6_only = field(have.v6_only);
        delta.dual = field(have.dual);
        delta.dns_failed = field(have.dns_failed);
        delta.measured = field(have.measured);
        delta.different_content = field(have.different_content);
        delta.download_failed = field(have.download_failed);
        db.merge_counters(round, std::span(&delta, 1));
        break;
      }
      case kTagEnd: {
        const std::uint64_t expected = r.u64();
        if (expected != observations) {
          throw Error("spool: observation count mismatch (truncated or corrupt)");
        }
        ended = true;
        break;
      }
      default:
        throw Error("spool: unknown record tag");
    }
  }
  if (!ended) throw Error("spool: missing end record (writer not closed?)");
}

void replay_spool_file(const std::string& path, ResultsDb& db) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("spool: cannot open '" + path + "' for reading");
  replay_spool(in, db);
}

}  // namespace v6mon::core
