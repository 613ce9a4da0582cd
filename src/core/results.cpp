#include "core/results.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string_view>
#include <utility>

#include "bgp/rib.h"
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

PairId PathRegistry::intern_pair(RouteId v4, RouteId v6) {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!frozen_, "intern_pair() into a frozen registry");
  V6MON_REQUIRE(v4 == kNoRoute || v4 < routes_.size(), "pair v4 route id out of range");
  V6MON_REQUIRE(v6 == kNoRoute || v6 < routes_.size(), "pair v6 route id out of range");
  return intern_pair_locked(v4, v6);
}

PairId PathRegistry::intern_pair(const bgp::RibEntry* v4, const bgp::RibEntry* v6,
                                 bool as_paths) {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!frozen_, "intern_pair() into a frozen registry");
  const RouteId r4 = intern_entry_locked(v4, as_paths);
  return intern_pair_locked(r4, intern_entry_locked(v6, as_paths));
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

RouteId PathRegistry::intern_entry_locked(const bgp::RibEntry* e, bool as_paths) {
  if (e == nullptr) return kNoRoute;
  return intern_route_locked(e->origin, as_paths ? intern_locked(e->as_path) : kNoPath);
}

PairId PathRegistry::intern_pair_locked(RouteId v4, RouteId v6) {
  if (v4 == kNoRoute && v6 == kNoRoute) return kNoPair;
  const std::uint64_t key = (std::uint64_t{v4} << 32) | v6;
  const auto [it, inserted] =
      pair_index_.try_emplace(key, static_cast<PairId>(pairs_.size()));
  if (inserted) pairs_.push_back({v4, v6});
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

std::size_t PathRegistry::pair_count() const {
  util::LockGuard lock(mu_);
  return pairs_.size();
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
         routes_.size() * sizeof(Route) + pairs_.size() * sizeof(RoutePair);
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
    case MonitorStatus::kDnsFailed: add_count(c.dns_failed, n); break;
    case MonitorStatus::kV4Only: add_count(c.v4_only, n); break;
    case MonitorStatus::kV6Only: add_count(c.v6_only, n); break;
    case MonitorStatus::kV4DownloadFailed:
    case MonitorStatus::kV6DownloadFailed:
      add_count(c.dual, n);
      add_count(c.download_failed, n);
      break;
    case MonitorStatus::kDifferentContent:
      add_count(c.dual, n);
      add_count(c.different_content, n);
      break;
    case MonitorStatus::kMeasured:
      add_count(c.dual, n);
      add_count(c.measured, n);
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

void ResultsDb::reserve(std::size_t rows) {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!finalized_, "reserve() after finalize()");
  rows_.reserve(rows);
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

namespace {

/// Open-addressing map from a site id to its slot, the order in which
/// the site first appeared. Sized by the sites present, not by the
/// catalog: a campaign store holds a few thousand sites of a million.
class SiteSlots {
 public:
  /// The site's slot, appending one for a site not seen before.
  std::uint32_t slot(std::uint32_t site) {
    if (2 * (sites_.size() + 1) > table_.size()) grow();
    for (std::size_t i = home(site);; i = (i + 1) & (table_.size() - 1)) {
      Entry& e = table_[i];
      if (e.slot == kEmpty) {
        e = {site, static_cast<std::uint32_t>(sites_.size())};
        sites_.push_back(site);
        return e.slot;
      }
      if (e.site == site) return e.slot;
    }
  }
  /// Site of each slot, in slot order.
  [[nodiscard]] const std::vector<std::uint32_t>& sites() const { return sites_; }

 private:
  struct Entry {
    std::uint32_t site = 0;
    std::uint32_t slot = kEmpty;
  };
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  [[nodiscard]] std::size_t home(std::uint32_t site) const {
    // Fibonacci hashing: the top bits of a golden-ratio product.
    return static_cast<std::size_t>((site * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// Double the table (64 entries at first) and re-place every site.
  void grow() {
    const std::size_t size = table_.empty() ? 64 : 2 * table_.size();
    shift_ = 64 - std::countr_zero(size);
    table_.assign(size, Entry{});
    for (std::uint32_t slot = 0; slot < sites_.size(); ++slot) {
      std::size_t i = home(sites_[slot]);
      while (table_[i].slot != kEmpty) i = (i + 1) & (size - 1);
      table_[i] = {sites_[slot], slot};
    }
  }

  std::vector<Entry> table_;  ///< Power-of-two size, at most half full.
  std::vector<std::uint32_t> sites_;
  int shift_ = 64;
};

}  // namespace

void ResultsDb::finalize() {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(!finalized_, "finalize() called twice");
  V6MON_REQUIRE(rows_.size() < std::numeric_limits<std::uint32_t>::max(),
                "too many rows for one store");
  const auto n = static_cast<std::uint32_t>(rows_.size());
  // Counting placement, the stable sort by (site, round) without a second
  // row buffer. dest[i] first holds row i's site slot, then the row's
  // final position.
  std::vector<std::uint32_t> dest(n);
  SiteSlots slots;
  for (std::uint32_t i = 0; i < n; ++i) dest[i] = slots.slot(rows_[i].site);
  const std::vector<std::uint32_t>& sites = slots.sites();
  // Rows per slot, then each slot's next position.
  std::vector<std::uint32_t> next(sites.size(), 0);
  for (const std::uint32_t slot : dest) ++next[slot];
  std::vector<std::uint32_t> by_site(sites.size());
  std::iota(by_site.begin(), by_site.end(), 0u);
  std::sort(by_site.begin(), by_site.end(),
            [&sites](std::uint32_t a, std::uint32_t b) { return sites[a] < sites[b]; });
  site_ids_.reserve(sites.size());
  site_begin_.reserve(sites.size() + 1);
  std::uint32_t offset = 0;
  for (const std::uint32_t slot : by_site) {
    site_ids_.push_back(sites[slot]);
    site_begin_.push_back(offset);
    offset += std::exchange(next[slot], offset);
  }
  site_begin_.push_back(n);
  // Positions handed out in arrival order keep rows sharing one (site,
  // round), W6D mini-rounds, in their ingest order.
  for (std::uint32_t& d : dest) d = next[d]++;
  // Cycle walking: each swap puts one row in its final place.
  for (std::uint32_t i = 0; i < n; ++i) {
    while (dest[i] != i) {
      const std::uint32_t d = dest[i];
      std::swap(rows_[i], rows_[d]);
      std::swap(dest[i], dest[d]);
    }
  }
  // A campaign ingests rounds in order, so each run already is in round
  // order; a run that arrived out of order is sorted alone.
  const auto by_round = [](const Observation& a, const Observation& b) {
    return a.round < b.round;
  };
  for (std::size_t k = 0; k < site_ids_.size(); ++k) {
    const auto first = rows_.begin() + static_cast<std::ptrdiff_t>(site_begin_[k]);
    const auto last = rows_.begin() + static_cast<std::ptrdiff_t>(site_begin_[k + 1]);
    if (!std::is_sorted(first, last, by_round)) std::stable_sort(first, last, by_round);
  }
  paths_->freeze();
  finalized_ = true;
}

std::size_t ResultsDb::bytes() const {
  V6MON_REQUIRE(finalized_, "bytes() requires a finalized ResultsDb");
  util::LockGuard lock(mu_);
  return rows_.size() * sizeof(Observation) + site_ids_.size() * sizeof(std::uint32_t) +
         site_begin_.size() * sizeof(std::size_t) + rounds_.size() * sizeof(RoundCounters);
}

namespace {

/// Room reserved per row for everything but its route columns; the
/// worst case is 74 bytes: a uint32 site id (10), a uint16 round (5), the
/// longest status name (18), two `%.6g` floats (12 each,
/// "-1.17549e-38"), two uint16 sample counts (5 each), six commas and the
/// newline.
constexpr std::size_t kRowFixedBytes = 80;

/// The four route columns of every pair of `paths`, by pair id, each as
/// ",v4_origin,v6_origin,v4_path,v6_path": an origin has no digits for no
/// route, a path reads "-" for kNoPath. Each route is rendered once, and
/// each pair from its two routes.
std::vector<std::string> render_pairs(const PathRegistry& paths) {
  struct RouteText {
    std::string origin;
    std::string path = "-";
  };
  std::vector<RouteText> routes(paths.route_count());
  for (std::size_t id = 0; id < routes.size(); ++id) {
    const Route r = paths.route(static_cast<RouteId>(id));
    if (r.origin != topo::kNoAs) routes[id].origin = std::to_string(r.origin);
    routes[id].path = paths.to_string(r.path);
  }
  const RouteText none;
  const auto text = [&](RouteId id) -> const RouteText& {
    return id == kNoRoute ? none : routes[id];
  };
  std::vector<std::string> pairs(paths.pair_count());
  for (std::size_t id = 0; id < pairs.size(); ++id) {
    const RoutePair p = paths.pair(static_cast<PairId>(id));
    const RouteText& v4 = text(p.v4);
    const RouteText& v6 = text(p.v6);
    pairs[id] = "," + v4.origin + "," + v6.origin + "," + v4.path + "," + v6.path;
  }
  return pairs;
}

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

/// The observation dump. The rows are cut into chunks of
/// ResultsDb::kCsvChunkRows; each worker claims the next chunk, formats it
/// into its own buffer, then waits for the chunk's turn and writes it, so
/// later chunks are formatted while earlier ones are written and the
/// bytes are those of one thread formatting the rows in order.
///
/// Integers go through `std::to_chars`, speeds through util::write_g6,
/// and each pair's route columns come from a table rendered before the
/// first chunk (the registry is frozen, so the table is read-only).
class CsvDump {
 public:
  CsvDump(std::ostream& out, const PathRegistry& paths, std::span<const Observation> rows)
      : out_(out),
        rows_(rows),
        chunks_((rows.size() + ResultsDb::kCsvChunkRows - 1) / ResultsDb::kCsvChunkRows),
        pairs_(render_pairs(paths)) {
    std::size_t widest = no_pair_.size();
    for (const std::string& text : pairs_) widest = std::max(widest, text.size());
    buffer_bytes_ = std::min(rows.size(), ResultsDb::kCsvChunkRows) * (kRowFixedBytes + widest);
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
    p = put_text(p, pair_text(o.route_pair));
    *p++ = '\n';
    return p;
  }

  const std::string& pair_text(PairId id) const {
    if (id == kNoPair) return no_pair_;
    V6MON_REQUIRE(id < pairs_.size(), "pair id out of range");
    return pairs_[id];
  }

  std::ostream& out_;
  const std::span<const Observation> rows_;
  const std::size_t chunks_;
  std::vector<std::string> pairs_;    ///< Rendered route columns, by pair id.
  const std::string no_pair_ = ",,,-,-";  ///< kNoPair: no origins, paths "-".
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
    CsvDump dump(out, *paths_, rows_);
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
