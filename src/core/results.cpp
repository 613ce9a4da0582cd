#include "core/results.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <memory>
#include <sstream>
#include <string_view>

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

/// Bytes the observation writer formats before one `ostream::write`
/// hands them to the stream.
constexpr std::size_t kCsvBlockBytes = std::size_t{64} << 10;
/// Room reserved per row for the fields before its two paths; the worst
/// case is 96 bytes: a uint32 site id (10), a uint16 round (5), the
/// longest status name (18), two `%.6g` floats (12 each,
/// "-1.17549e-38"), two uint16 sample counts (5 each), two ASNs (10
/// each) and nine commas.
constexpr std::size_t kRowFixedBytes = 128;

/// Block-buffered observation-CSV formatter. Rows are formatted with
/// `std::to_chars` (integers) and util::write_g6 (speeds) into one fixed
/// block; a full block goes to the stream in a single write, so the dump
/// never holds more than a block of text.
/// Each route id's origin and path columns are rendered at most once per
/// dump and copied from that cache for every later row.
class CsvRowWriter {
 public:
  CsvRowWriter(std::ostream& out, const PathRegistry& paths)
      : out_(out),
        paths_(paths),
        block_(std::make_unique<char[]>(kCsvBlockBytes)),
        pos_(block_.get()),
        route_text_(paths.route_count()) {}

  void put(std::string_view s) {
    if (s.size() > room()) {
      spill();
      if (s.size() > kCsvBlockBytes) {
        write(s.data(), s.size());
        return;
      }
    }
    std::memcpy(pos_, s.data(), s.size());
    pos_ += s.size();
  }

  void row(const Observation& o) {
    if (room() < kRowFixedBytes) spill();
    number(o.site);
    field(o.round);
    field_text(monitor_status_name(o.status));
    field_speed(o.v4_speed_kBps);
    field_speed(o.v6_speed_kBps);
    field(o.v4_samples);
    field(o.v6_samples);
    const RouteText& v4 = route_text(o.v4_route);
    const RouteText& v6 = route_text(o.v6_route);
    field_origin(v4);
    field_origin(v6);
    *pos_++ = ',';
    put(v4.path);
    put(",");
    put(v6.path);
    put("\n");
  }

  /// Write out the last block and flush the stream.
  void finish() {
    spill();
    out_.flush();
    check_stream();
  }

 private:
  [[nodiscard]] std::size_t room() const {
    return static_cast<std::size_t>(block_.get() + kCsvBlockBytes - pos_);
  }

  void spill() {
    write(block_.get(), static_cast<std::size_t>(pos_ - block_.get()));
    pos_ = block_.get();
  }

  void write(const char* data, std::size_t n) {
    out_.write(data, static_cast<std::streamsize>(n));
    check_stream();
  }

  /// A dump that hit a full disk or bad streambuf must surface — a
  /// silently truncated CSV is indistinguishable from a small campaign.
  /// Checked after every block, so a dead stream stops the dump there.
  void check_stream() const {
    if (out_.fail()) throw IoError("observation CSV write failed (stream in fail state)");
  }

  // The fixed-width fields below write into the row's reserved room.
  template <typename Int>
  void number(Int v) {
    pos_ = std::to_chars(pos_, block_.get() + kCsvBlockBytes, v).ptr;
  }
  template <typename Int>
  void field(Int v) {
    *pos_++ = ',';
    number(v);
  }
  void field_text(std::string_view s) {
    *pos_++ = ',';
    std::memcpy(pos_, s.data(), s.size());
    pos_ += s.size();
  }
  /// `%.6g` of the float widened to double — the bytes `ostream << float`
  /// produces under the default stream state, without locale or num_put.
  void field_speed(float v) {
    *pos_++ = ',';
    pos_ = util::write_g6(pos_, v);
  }

  /// A route's origin column (no digits for kNoAs) and path column ("-"
  /// for kNoPath).
  struct RouteText {
    std::string path;  ///< Never empty once rendered.
    std::array<char, 10> origin{};  ///< A uint32 ASN has at most 10 digits.
    std::uint8_t origin_len = 0;
  };

  /// The origin is copied as a fixed 10-byte block (the row's reserved
  /// room covers it) and the cursor advances by its length.
  void field_origin(const RouteText& t) {
    *pos_++ = ',';
    std::memcpy(pos_, t.origin.data(), t.origin.size());
    pos_ += t.origin_len;
  }

  const RouteText& route_text(RouteId id) {
    if (id == kNoRoute) return no_route_;
    V6MON_REQUIRE(id < route_text_.size(), "route id out of range");
    RouteText& text = route_text_[id];
    if (text.path.empty()) {
      const Route r = paths_.route(id);
      if (r.origin != topo::kNoAs) {
        char* const end = std::to_chars(text.origin.data(),
                                        text.origin.data() + text.origin.size(), r.origin)
                              .ptr;
        text.origin_len = static_cast<std::uint8_t>(end - text.origin.data());
      }
      text.path = paths_.to_string(r.path);
    }
    return text;
  }

  std::ostream& out_;
  const PathRegistry& paths_;
  std::unique_ptr<char[]> block_;
  char* pos_;
  std::vector<RouteText> route_text_;  ///< Rendered routes, by id; path "" = not yet.
  const RouteText no_route_{"-"};     ///< kNoRoute: no origin, path "-".
};

}  // namespace

void ResultsDb::write_csv(std::ostream& out) const {
  V6MON_REQUIRE(finalized_, "write_csv() requires a finalized ResultsDb");
  CsvRowWriter w(out, paths_);
  w.put(
      "site,round,status,v4_speed_kBps,v6_speed_kBps,v4_samples,v6_samples,"
      "v4_origin,v6_origin,v4_path,v6_path\n");
  for (const Observation& o : rows_) w.row(o);
  w.finish();
}

std::string ResultsDb::to_csv() const {
  std::ostringstream out;
  write_csv(out);
  return out.str();
}

}  // namespace v6mon::core
