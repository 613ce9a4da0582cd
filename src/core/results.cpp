#include "core/results.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <sstream>
#include <string_view>

#include "core/thread_pool.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/float_format.h"

namespace v6mon::core {

// --- PathRegistry ----------------------------------------------------------

std::size_t PathRegistry::SpanHash::operator()(const SpanKey& k) const noexcept {
  // FNV-1a over the ASN words, seeded with the length so prefixes of a
  // path hash apart from the path itself.
  std::uint64_t h = 0xcbf29ce484222325ULL ^ k.len;
  for (std::uint32_t i = 0; i < k.len; ++i) {
    h ^= k.data[i];
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

bool PathRegistry::SpanEq::operator()(const SpanKey& a,
                                      const SpanKey& b) const noexcept {
  if (a.len != b.len) return false;
  return std::equal(a.data, a.data + a.len, b.data);
}

PathId PathRegistry::intern(std::span<const topo::Asn> path) {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!frozen_, "intern() into a frozen registry");
  return intern_locked(path);
}

RouteId PathRegistry::intern_route(topo::Asn origin, std::span<const topo::Asn> path) {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!frozen_, "intern_route() into a frozen registry");
  return intern_route_locked(origin, intern_locked(path));
}

RouteId PathRegistry::intern_route(topo::Asn origin, PathId path) {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!frozen_, "intern_route() into a frozen registry");
  V6MON_REQUIRE(path == kNoPath || path < paths_.size(), "route path id out of range");
  return intern_route_locked(origin, path);
}

PathId PathRegistry::intern_locked(std::span<const topo::Asn> path) {
  const SpanKey probe{path.data(), static_cast<std::uint32_t>(path.size())};
  const auto it = index_.find(probe);
  if (it != index_.end()) return it->second;  // hot path: zero allocations
  const PathId id = static_cast<PathId>(paths_.size());
  // Deque storage: elements never move, so the key can point into it.
  std::vector<topo::Asn>& stored = paths_.emplace_back(path.begin(), path.end());
  index_.emplace(SpanKey{stored.data(), probe.len}, id);
  return id;
}

RouteId PathRegistry::intern_route_locked(topo::Asn origin, PathId path) {
  const std::uint64_t key = (std::uint64_t{origin} << 32) | path;
  const auto [it, inserted] =
      route_index_.try_emplace(key, static_cast<RouteId>(routes_.size()));
  if (inserted) routes_.push_back({origin, path});
  return it->second;
}

const std::vector<topo::Asn>& PathRegistry::path_unlocked(PathId id) const {
  V6MON_REQUIRE(id < paths_.size(), "path id out of range");
  return paths_[id];
}

const std::vector<topo::Asn>& PathRegistry::path(PathId id) const {
  if (frozen_) return path_unlocked(id);
  util::LockGuard lock(mu_);
  return path_unlocked(id);
}

std::size_t PathRegistry::size() const {
  util::LockGuard lock(mu_);
  return paths_.size();
}

std::size_t PathRegistry::route_count() const {
  util::LockGuard lock(mu_);
  return routes_.size();
}

void PathRegistry::freeze() {
  util::LockGuard lock(mu_);
  frozen_ = true;
}

std::size_t PathRegistry::bytes() const {
  util::LockGuard lock(mu_);
  std::size_t hops = 0;
  for (const std::vector<topo::Asn>& p : paths_) hops += p.size();
  return paths_.size() * sizeof(std::vector<topo::Asn>) + hops * sizeof(topo::Asn) +
         routes_.size() * sizeof(Route);
}

std::string PathRegistry::to_string(PathId id) const {
  if (id == kNoPath) return "-";
  const std::vector<topo::Asn>& p = path(id);  // deque storage: stable, immutable
  if (p.empty()) return "(local)";
  // "AS" + at most 10 digits + one separator per hop.
  std::string out(p.size() * 13, '\0');
  char* w = out.data();
  char* const end = w + out.size();
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i) *w++ = ' ';
    *w++ = 'A';
    *w++ = 'S';
    w = std::to_chars(w, end, p[i]).ptr;
  }
  out.resize(static_cast<std::size_t>(w - out.data()));
  return out;
}

// --- Counters ---------------------------------------------------------------

void apply_status(RoundCounters& c, MonitorStatus status, std::uint64_t n) {
  switch (status) {
    case MonitorStatus::kDnsFailed: c.dns_failed += n; break;
    case MonitorStatus::kV4Only: c.v4_only += n; break;
    case MonitorStatus::kV6Only: c.v6_only += n; break;
    case MonitorStatus::kV4DownloadFailed:
    case MonitorStatus::kV6DownloadFailed:
      c.dual += n;
      c.download_failed += n;
      break;
    case MonitorStatus::kDifferentContent:
      c.dual += n;
      c.different_content += n;
      break;
    case MonitorStatus::kMeasured:
      c.dual += n;
      c.measured += n;
      break;
  }
}

// --- ResultsDb ---------------------------------------------------------------

void ResultsDb::add(const Observation& obs) {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!finalized_, "add() after finalize()");
  rows_.push_back(obs);
}

void ResultsDb::merge_rows(std::span<const Observation> batch) {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!finalized_, "merge_rows() after finalize()");
  rows_.insert(rows_.end(), batch.begin(), batch.end());
}

RoundCounters& ResultsDb::round_slot(std::uint32_t round) {
  if (rounds_.empty()) {
    first_round_ = round;
  } else if (round < first_round_) {
    rounds_.insert(rounds_.begin(), first_round_ - round, RoundCounters{});
    first_round_ = round;
  }
  const std::size_t i = round - first_round_;
  if (i >= rounds_.size()) rounds_.resize(i + 1);
  return rounds_[i];
}

void ResultsDb::count(std::uint32_t round, MonitorStatus status, std::uint64_t n) {
  util::LockGuard lock(mu_);
  apply_status(round_slot(round), status, n);
}

void ResultsDb::count_listed(std::uint32_t round, std::uint64_t n) {
  util::LockGuard lock(mu_);
  round_slot(round).listed += n;
}

void ResultsDb::merge_counters(std::uint32_t first_round,
                               std::span<const RoundCounters> deltas) {
  if (deltas.empty()) return;
  util::LockGuard lock(mu_);
  // Widen once to cover both ends, then add in place.
  round_slot(first_round);
  round_slot(static_cast<std::uint32_t>(first_round + deltas.size() - 1));
  const std::size_t base = first_round - first_round_;
  for (std::size_t i = 0; i < deltas.size(); ++i) rounds_[base + i] += deltas[i];
}

SiteSeries ResultsDb::series(std::uint32_t site) const {
  V6MON_REQUIRE(finalized_, "series() requires a finalized ResultsDb");
  const auto it = std::lower_bound(site_ids_.begin(), site_ids_.end(), site);
  if (it == site_ids_.end() || *it != site) return {};
  const auto k = static_cast<std::size_t>(it - site_ids_.begin());
  return SiteSeries(rows_.data() + site_begin_[k], site_begin_[k + 1] - site_begin_[k]);
}

const RoundCounters& ResultsDb::round_counters(std::uint32_t round) const {
  static const RoundCounters kEmpty{};
  // Surfaced by the thread-safety annotations (ISSUE 6): this read of
  // rounds_ used to rely on the read-after-ingest convention alone, but
  // unlike the phase-published rows it shares a field with live
  // ingest (count/merge_counters resize it) — so it takes the lock like
  // every other rounds_ access. The returned reference is stable only
  // once ingest has quiesced, as before.
  util::LockGuard lock(mu_);
  if (round < first_round_ || round - first_round_ >= rounds_.size()) return kEmpty;
  return rounds_[round - first_round_];
}

void ResultsDb::finalize() {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!finalized_, "finalize() called twice");
  // Stable, so rows sharing one (site, round) — W6D mini-rounds, each a
  // separate ingest epoch — keep their arrival order.
  std::stable_sort(rows_.begin(), rows_.end(), [](const Observation& a, const Observation& b) {
    return a.site != b.site ? a.site < b.site : a.round < b.round;
  });
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i == 0 || rows_[i].site != rows_[i - 1].site) {
      site_ids_.push_back(rows_[i].site);
      site_begin_.push_back(i);
    }
  }
  site_begin_.push_back(rows_.size());
  paths_.freeze();
  finalized_ = true;
}

std::size_t ResultsDb::bytes() const {
  V6MON_REQUIRE(finalized_, "bytes() requires a finalized ResultsDb");
  util::LockGuard lock(mu_);
  return rows_.size() * sizeof(Observation) + site_ids_.size() * sizeof(std::uint32_t) +
         site_begin_.size() * sizeof(std::size_t) + rounds_.size() * sizeof(RoundCounters) +
         paths_.bytes();
}

namespace {

/// Room reserved per row for everything but its two path texts; the
/// worst case is 98 bytes: a uint32 site id (10), a uint16 round (5), the
/// longest status name (18), two `%.6g` floats (12 each,
/// "-1.17549e-38"), two uint16 sample counts (5 each), two ASNs (10
/// each), ten commas and the newline.
constexpr std::size_t kRowFixedBytes = 128;

/// A route's origin column (no digits for kNoAs) and path column ("-"
/// for kNoPath), rendered once per dump.
struct RouteText {
  std::string path;
  std::array<char, 10> origin{};  ///< A uint32 ASN has at most 10 digits.
  std::uint8_t origin_len = 0;
};

// The field writers below format into a buffer sized for the widest
// row, so they write without bounds checks and return the new cursor.

template <typename Int>
char* put_number(char* p, Int v) {
  return std::to_chars(p, p + 10, v).ptr;  // 10 digits hold any uint32
}

char* put_text(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

/// The origin is copied as a fixed 10-byte block (the row's reserved
/// room covers it) and the cursor advances by its length.
char* put_origin(char* p, const RouteText& t) {
  std::memcpy(p, t.origin.data(), t.origin.size());
  return p + t.origin_len;
}

/// The observation dump. The rows are cut into chunks of
/// ResultsDb::kCsvChunkRows; each worker claims the next chunk, formats it
/// into its own buffer, then waits for the chunk's turn and writes it, so
/// later chunks are formatted while earlier ones are written and the
/// bytes are those of one thread formatting the rows in order.
///
/// Integers go through `std::to_chars`, speeds through util::write_g6,
/// and each route's text comes from a table rendered before the first
/// chunk (the registry is frozen, so the table is read-only).
class CsvDump {
 public:
  CsvDump(std::ostream& out, const PathRegistry& paths, std::span<const Observation> rows)
      : out_(out),
        rows_(rows),
        chunks_((rows.size() + ResultsDb::kCsvChunkRows - 1) / ResultsDb::kCsvChunkRows),
        routes_(paths.route_count()) {
    std::size_t widest_path = no_route_.path.size();
    for (std::size_t id = 0; id < routes_.size(); ++id) {
      RouteText& text = routes_[id];
      const Route r = paths.route(static_cast<RouteId>(id));
      if (r.origin != topo::kNoAs) {
        char* const end = std::to_chars(text.origin.data(),
                                        text.origin.data() + text.origin.size(), r.origin)
                              .ptr;
        text.origin_len = static_cast<std::uint8_t>(end - text.origin.data());
      }
      text.path = paths.to_string(r.path);
      widest_path = std::max(widest_path, text.path.size());
    }
    buffer_bytes_ =
        std::min(rows.size(), ResultsDb::kCsvChunkRows) * (kRowFixedBytes + 2 * widest_path);
  }

  [[nodiscard]] std::size_t chunks() const { return chunks_; }

  /// Claim, format and write chunks until none is left or the dump
  /// stopped. Every way out — done, a failed stream, or an exception
  /// (a contract check, a throwing stream) — leaves no worker waiting
  /// for a turn that never comes: a throw stops the dump first.
  void run_worker() {
    try {
      // Uninitialized: only the bytes formatted become resident.
      std::unique_ptr<char[]> buf;
      std::size_t chunk = 0;
      while (claim(chunk)) {
        if (!buf) buf = std::make_unique_for_overwrite<char[]>(buffer_bytes_);
        const std::size_t n = format_chunk(chunk, buf.get());
        if (!write_in_turn(chunk, buf.get(), n)) return;
      }
    } catch (...) {
      stop();
      throw;
    }
  }

 private:
  /// The next unclaimed chunk; false once every chunk is claimed or the
  /// dump stopped.
  bool claim(std::size_t& chunk) {
    util::LockGuard lock(mu_);
    if (stopped_ || next_ == chunks_) return false;
    chunk = next_++;
    return true;
  }

  /// Wait for `chunk`'s turn, write it and pass the turn on. False when
  /// the dump stopped, before or because of this write. A dump that hit a
  /// full disk or a bad streambuf must surface — a silently truncated CSV
  /// is indistinguishable from a small campaign — so a failed stream
  /// stops it here and write_csv throws.
  bool write_in_turn(std::size_t chunk, const char* data, std::size_t n) {
    {
      util::UniqueLock lock(mu_);
      while (turn_ != chunk && !stopped_) lock.wait(turn_cv_);
      if (stopped_) return false;
    }
    // Unlocked, so other workers claim chunks meanwhile: only the turn's
    // holder writes, and it passes the turn on under mu_ afterwards.
    out_.write(data, static_cast<std::streamsize>(n));
    const bool ok = !out_.fail();
    {
      util::LockGuard lock(mu_);
      if (ok) {
        ++turn_;
      } else {
        stopped_ = true;
      }
    }
    turn_cv_.notify_all();
    return ok;
  }

  void stop() {
    util::LockGuard lock(mu_);
    stopped_ = true;
    turn_cv_.notify_all();
  }

  std::size_t format_chunk(std::size_t chunk, char* const buf) const {
    const std::size_t first = chunk * ResultsDb::kCsvChunkRows;
    const std::size_t last = std::min(first + ResultsDb::kCsvChunkRows, rows_.size());
    char* p = buf;
    for (std::size_t i = first; i < last; ++i) p = format_row(rows_[i], p);
    return static_cast<std::size_t>(p - buf);
  }

  char* format_row(const Observation& o, char* p) const {
    p = put_number(p, o.site);
    *p++ = ',';
    p = put_number(p, o.round);
    *p++ = ',';
    p = put_text(p, monitor_status_name(o.status));
    // `%.6g` of the float widened to double — the bytes `ostream <<
    // float` produces under the default stream state.
    *p++ = ',';
    p = util::write_g6(p, o.v4_speed_kBps);
    *p++ = ',';
    p = util::write_g6(p, o.v6_speed_kBps);
    *p++ = ',';
    p = put_number(p, o.v4_samples);
    *p++ = ',';
    p = put_number(p, o.v6_samples);
    const RouteText& v4 = route_text(o.v4_route);
    const RouteText& v6 = route_text(o.v6_route);
    *p++ = ',';
    p = put_origin(p, v4);
    *p++ = ',';
    p = put_origin(p, v6);
    *p++ = ',';
    p = put_text(p, v4.path);
    *p++ = ',';
    p = put_text(p, v6.path);
    *p++ = '\n';
    return p;
  }

  const RouteText& route_text(RouteId id) const {
    if (id == kNoRoute) return no_route_;
    V6MON_REQUIRE(id < routes_.size(), "route id out of range");
    return routes_[id];
  }

  std::ostream& out_;
  const std::span<const Observation> rows_;
  const std::size_t chunks_;
  std::vector<RouteText> routes_;     ///< Rendered routes, by id.
  const RouteText no_route_{"-"};     ///< kNoRoute: no origin, path "-".
  std::size_t buffer_bytes_ = 0;      ///< One chunk of the widest rows.

  util::Mutex mu_;
  std::condition_variable turn_cv_;
  std::size_t next_ V6MON_GUARDED_BY(mu_) = 0;  ///< Next chunk to claim.
  std::size_t turn_ V6MON_GUARDED_BY(mu_) = 0;  ///< Next chunk to write.
  /// Set by a failed write or a throwing worker: nothing more is claimed
  /// or written.
  bool stopped_ V6MON_GUARDED_BY(mu_) = false;
};

}  // namespace

void ResultsDb::write_csv(std::ostream& out, std::size_t threads) const {
  V6MON_REQUIRE(finalized_, "write_csv() requires a finalized ResultsDb");
  constexpr std::string_view kHeader =
      "site,round,status,v4_speed_kBps,v6_speed_kBps,v4_samples,v6_samples,"
      "v4_origin,v6_origin,v4_path,v6_path\n";
  out.write(kHeader.data(), static_cast<std::streamsize>(kHeader.size()));
  if (!out.fail()) {
    CsvDump dump(out, paths_, rows_);
    const std::size_t workers = std::min(resolve_threads(threads), dump.chunks());
    if (workers <= 1) {
      dump.run_worker();
    } else {
      ThreadPool pool(workers);
      parallel_index(pool, workers, [&dump](std::size_t) { dump.run_worker(); });
    }
    out.flush();
  }
  if (out.fail()) throw IoError("observation CSV write failed (stream in fail state)");
}

std::string ResultsDb::to_csv() const {
  std::ostringstream out;
  write_csv(out);
  return out.str();
}

}  // namespace v6mon::core
