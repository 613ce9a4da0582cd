#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "topo/as_graph.h"
#include "util/contracts.h"
#include "util/thread_annotations.h"

namespace v6mon::bgp {
struct RibEntry;
}  // namespace v6mon::bgp

namespace v6mon::core {

/// Outcome of one site's monitoring pass (Fig. 2 of the paper).
enum class MonitorStatus : std::uint8_t {
  kDnsFailed,         ///< Neither A nor AAAA resolved (both queries timed out).
  kV4Only,            ///< A record only — the common case.
  kV6Only,            ///< AAAA record only.
  kV4DownloadFailed,  ///< Dual-stack but the IPv4 page fetch failed.
  kV6DownloadFailed,  ///< Dual-stack but the IPv6 page fetch failed (e.g. no route).
  kDifferentContent,  ///< Page sizes differ beyond the identity threshold.
  kMeasured,          ///< Full performance sample recorded.
};

[[nodiscard]] constexpr const char* monitor_status_name(MonitorStatus s) {
  switch (s) {
    case MonitorStatus::kDnsFailed: return "dns-failed";
    case MonitorStatus::kV4Only: return "v4-only";
    case MonitorStatus::kV6Only: return "v6-only";
    case MonitorStatus::kV4DownloadFailed: return "v4-download-failed";
    case MonitorStatus::kV6DownloadFailed: return "v6-download-failed";
    case MonitorStatus::kDifferentContent: return "different-content";
    case MonitorStatus::kMeasured: return "measured";
  }
  return "?";
}

/// Interned AS-path id; kNoPath when no path was recorded.
using PathId = std::uint32_t;
inline constexpr PathId kNoPath = 0xffffffffu;

/// Interned route id; kNoRoute when the RIB held no route.
using RouteId = std::uint32_t;
inline constexpr RouteId kNoRoute = 0xffffffffu;

/// Interned (IPv4 route, IPv6 route) pair id; kNoPair when neither family
/// had a route.
using PairId = std::uint32_t;
inline constexpr PairId kNoPair = 0xffffffffu;

/// One family's RIB route as an observation records it: the destination's
/// origin AS and the interned AS_PATH (kNoPath at a vantage point without
/// AS paths).
struct Route {
  topo::Asn origin = topo::kNoAs;
  PathId path = kNoPath;
};

/// The two routes one observation records, one per family.
struct RoutePair {
  RouteId v4 = kNoRoute;
  RouteId v6 = kNoRoute;
};

/// Deduplicating store of AS paths, of routes (an origin and a path id)
/// and of route pairs (an IPv4 and an IPv6 route id). An observation
/// references its two routes by one pair id, so a campaign's millions of
/// observations copy neither vectors nor routes: a vantage point sees a
/// few thousand distinct pairs.
///
/// The path index hashes and compares the ASN *span* directly — no
/// serialized string key — so the common already-interned lookup does
/// zero allocations. Thread-safe behind one mutex. A vantage point has
/// one registry: its Monitor interns a resolved row's pair when it fills
/// the row, and the VP's two ResultsDbs (regular and W6D) read the same
/// object, so an observation's pair id is valid from the monitor to the
/// CSV. Ids follow interning order; only path, route and pair *content*
/// reaches any output.
///
/// Two phases, like ResultsDb: `freeze()` (ResultsDb::finalize calls it)
/// ends interning, and every read after it takes no lock.
class PathRegistry {
 public:
  /// Intern a path (thread-safe); returns a stable id.
  PathId intern(std::span<const topo::Asn> path);
  PathId intern(const std::vector<topo::Asn>& path) {
    return intern(std::span<const topo::Asn>(path.data(), path.size()));
  }
  PathId intern(std::initializer_list<topo::Asn> path) {
    return intern(std::span<const topo::Asn>(path.begin(), path.size()));
  }
  /// Intern the route (origin, path), and `path` with it, under one lock
  /// (thread-safe).
  RouteId intern_route(topo::Asn origin, std::span<const topo::Asn> path);
  /// Intern the route (origin, path id) (thread-safe); `path` is kNoPath
  /// (a vantage point without AS paths) or an id of this registry.
  RouteId intern_route(topo::Asn origin, PathId path);
  /// Intern the pair (v4, v6) of this registry's route ids (thread-safe).
  /// Two kNoRoute sides are kNoPair, which stores nothing.
  PairId intern_pair(RouteId v4, RouteId v6);
  /// Intern the pair of two RIB routes, and their routes and AS paths
  /// with it, under one lock (thread-safe). A null entry is no route;
  /// `as_paths` false records kNoPath (a vantage point without AS paths).
  PairId intern_pair(const bgp::RibEntry* v4, const bgp::RibEntry* v6, bool as_paths);

  [[nodiscard]] const std::vector<topo::Asn>& path(PathId id) const;
  /// The route's origin and path id; kNoRoute reads as {kNoAs, kNoPath}.
  [[nodiscard]] Route route(RouteId id) const {
    if (frozen_) return route_unlocked(id);
    util::LockGuard lock(mu_);
    return route_unlocked(id);
  }
  /// The pair's two route ids; kNoPair reads as {kNoRoute, kNoRoute}.
  /// Inline: analysis reads one pair per observation row.
  [[nodiscard]] RoutePair pair(PairId id) const {
    if (frozen_) return pair_unlocked(id);
    util::LockGuard lock(mu_);
    return pair_unlocked(id);
  }
  /// Number of distinct paths.
  [[nodiscard]] std::size_t size() const;
  /// Number of distinct routes.
  [[nodiscard]] std::size_t route_count() const;
  /// Number of distinct pairs.
  [[nodiscard]] std::size_t pair_count() const;

  /// Render "AS1 AS2 AS3" for logs/CSV.
  [[nodiscard]] std::string to_string(PathId id) const;

  /// End interning: later reads take no lock, and intern calls are
  /// contract errors. Call after the last intern (phase barrier); a
  /// shared registry is frozen by each store that reads it.
  void freeze();
  [[nodiscard]] bool frozen() const {
    util::LockGuard lock(mu_);
    return frozen_;
  }

  /// Bytes of the interned content: every path's vector and hops, every
  /// route and every pair record. A function of the content alone, so
  /// equal registries report equal bytes whatever order filled them (hash
  /// index overhead is not counted).
  [[nodiscard]] std::size_t bytes() const;

 private:
  /// View into an interned path's storage (deque elements never move, so
  /// the pointers stay valid as the registry grows).
  struct SpanKey {
    const topo::Asn* data;
    std::uint32_t len;
  };
  struct SpanHash {
    std::size_t operator()(const SpanKey& k) const noexcept;
  };
  struct SpanEq {
    bool operator()(const SpanKey& a, const SpanKey& b) const noexcept;
  };

  PathId intern_locked(std::span<const topo::Asn> path) V6MON_REQUIRES(mu_);
  RouteId intern_route_locked(topo::Asn origin, PathId path) V6MON_REQUIRES(mu_);
  RouteId intern_entry_locked(const bgp::RibEntry* e, bool as_paths) V6MON_REQUIRES(mu_);
  PairId intern_pair_locked(RouteId v4, RouteId v6) V6MON_REQUIRES(mu_);

  /// Reads without taking mu_: callers hold it, or the registry is
  /// frozen (nothing writes after freeze()).
  const std::vector<topo::Asn>& path_unlocked(PathId id) const
      V6MON_NO_THREAD_SAFETY_ANALYSIS;
  Route route_unlocked(RouteId id) const V6MON_NO_THREAD_SAFETY_ANALYSIS {
    if (id == kNoRoute) return {};
    V6MON_REQUIRE(id < routes_.size(), "route id out of range");
    return routes_[id];
  }
  RoutePair pair_unlocked(PairId id) const V6MON_NO_THREAD_SAFETY_ANALYSIS {
    if (id == kNoPair) return {};
    V6MON_REQUIRE(id < pairs_.size(), "pair id out of range");
    return pairs_[id];
  }

  mutable util::Mutex mu_;
  std::deque<std::vector<topo::Asn>> paths_ V6MON_GUARDED_BY(mu_);
  std::unordered_map<SpanKey, PathId, SpanHash, SpanEq> index_
      V6MON_GUARDED_BY(mu_);
  std::vector<Route> routes_ V6MON_GUARDED_BY(mu_);
  /// (origin << 32 | path id) -> route id.
  std::unordered_map<std::uint64_t, RouteId> route_index_ V6MON_GUARDED_BY(mu_);
  std::vector<RoutePair> pairs_ V6MON_GUARDED_BY(mu_);
  /// (v4 route id << 32 | v6 route id) -> pair id.
  std::unordered_map<std::uint64_t, PairId> pair_index_ V6MON_GUARDED_BY(mu_);
  /// Set once by freeze() at the phase barrier, then read lock-free.
  bool frozen_ = false;
};

/// One monitoring observation of one site in one round from one vantage
/// point: 24 bytes, one row per (site, round) of every dual-stack site
/// that reached the download phases.
struct Observation {
  std::uint32_t site = 0;
  /// Below kMaxCampaignRounds (4096), which Campaign enforces.
  std::uint16_t round = 0;
  MonitorStatus status = MonitorStatus::kDnsFailed;
  float v4_speed_kBps = 0.0f;  ///< Valid when status == kMeasured.
  float v6_speed_kBps = 0.0f;
  std::uint16_t v4_samples = 0;
  std::uint16_t v6_samples = 0;
  /// Origin AS and AS_PATH of each family per the VP's RIB: a pair of
  /// the VP's PathRegistry (Monitor::routes()), which its stores read.
  PairId route_pair = kNoPair;
};
static_assert(sizeof(Observation) == 24, "an observation row is 24 bytes");

/// Per-round aggregate counters (cover the whole catalog, including the
/// v4-only masses that get no per-site series). A round's count is
/// bounded by the catalog, one decision per listed site, so each fits 32
/// bits (the spool still writes them as u64).
struct RoundCounters {
  std::uint32_t listed = 0;
  std::uint32_t v4_only = 0;
  std::uint32_t v6_only = 0;
  std::uint32_t dual = 0;
  std::uint32_t dns_failed = 0;
  std::uint32_t measured = 0;
  std::uint32_t different_content = 0;
  std::uint32_t download_failed = 0;
};

/// Add `n` to one round's count; a sum beyond 32 bits is a contract
/// error (it cannot come from one catalog).
inline void add_count(std::uint32_t& count, std::uint64_t n) {
  V6MON_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max() - count,
                "round counter overflow");
  count = static_cast<std::uint32_t>(count + n);
}

inline RoundCounters& operator+=(RoundCounters& a, const RoundCounters& b) {
  add_count(a.listed, b.listed);
  add_count(a.v4_only, b.v4_only);
  add_count(a.v6_only, b.v6_only);
  add_count(a.dual, b.dual);
  add_count(a.dns_failed, b.dns_failed);
  add_count(a.measured, b.measured);
  add_count(a.different_content, b.different_content);
  add_count(a.download_failed, b.download_failed);
  return a;
}

/// Bucket `n` occurrences of one monitoring status into the round's
/// counters — the single definition of the status→counter mapping. The
/// bulk form exists for the campaign, which settles hundreds of thousands
/// of v4-only sites per round and folds a round's statuses in one pass:
/// counters are additive, so one add of `n` is byte-identical to `n` adds
/// of one.
void apply_status(RoundCounters& c, MonitorStatus status, std::uint64_t n = 1);

/// A read-only window onto one site's observations: a contiguous run of
/// the finalized store's rows, sorted by round.
using SiteSeries = std::span<const Observation>;

/// All results collected by one vantage point over a campaign. Mirrors
/// the paper's per-vantage-point MySQL database: one row per
/// (site, round) observation.
///
/// Two phases. During ingest `add`/`merge_rows` append rows in arrival
/// order, into room `reserve` may have set aside. `finalize()`, called
/// once after ingest, orders the rows in place by (site, round), stable,
/// and indexes each site's run. Every read of the rows (`series`,
/// `site_ids`, `write_csv`) requires a finalized database; every write
/// of them requires an unfinalized one.
class ResultsDb {
 public:
  /// A store on a fresh registry of its own.
  ResultsDb() : ResultsDb(std::make_shared<PathRegistry>()) {}
  /// A store whose rows' pair ids are `paths`' ids: a vantage point's
  /// registry, shared with its Monitor and its other store.
  explicit ResultsDb(std::shared_ptr<PathRegistry> paths) : paths_(std::move(paths)) {}

  /// Record a full observation (dual-stack sites). Thread-safe.
  void add(const Observation& obs);

  /// Bulk ingest of one round's rows: appends the batch under one lock.
  /// Pair ids are paths()' ids. Relative order of add() rows and merged
  /// batches is preserved.
  void merge_rows(std::span<const Observation> batch);
  /// Set aside room for `rows` rows in all, so that ingest up to that
  /// many allocates nothing more. A hint: ingest past it still appends.
  void reserve(std::size_t rows);
  /// Rows the store has room for without allocating (read-only; for
  /// tests of the reservation).
  [[nodiscard]] std::size_t row_capacity() const {
    util::LockGuard lock(mu_);
    return rows_.capacity();
  }
  /// Fold per-round counter deltas in: `deltas[i]` is round
  /// `first_round + i`'s (one campaign round, or one spool record). One
  /// lock for the whole range.
  void merge_counters(std::uint32_t first_round, std::span<const RoundCounters> deltas);

  [[nodiscard]] PathRegistry& paths() { return *paths_; }
  [[nodiscard]] const PathRegistry& paths() const { return *paths_; }

  /// Number of sites with at least one observation. Requires finalize().
  [[nodiscard]] std::size_t num_sites() const { return site_ids_.size(); }
  /// Ascending ids of all sites with observations. Requires finalize().
  [[nodiscard]] const std::vector<std::uint32_t>& site_ids() const {
    return site_ids_;
  }
  /// Per-site observation series, ordered by round; empty when the site
  /// has no observations. Requires finalize().
  [[nodiscard]] SiteSeries series(std::uint32_t site) const;

  /// The round's counters; all-zero for a round the store never counted.
  [[nodiscard]] const RoundCounters& round_counters(std::uint32_t round) const;
  /// One past the highest round counted (0 when none was).
  [[nodiscard]] std::size_t rounds() const {
    util::LockGuard lock(mu_);
    return rounds_.empty() ? 0 : first_round_ + rounds_.size();
  }

  /// Order the rows by (site, round), index each site's run and freeze
  /// the registry. Rows sharing one (site, round) (W6D mini-rounds) keep
  /// their ingest order. The rows are placed in place by counting, O(n)
  /// with 4 bytes of scratch per row: no second row buffer. Call exactly
  /// once, after ingest and before analysis.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Bytes the finalized store holds: rows x sizeof(Observation), the
  /// site index and the round counters (sizes, not capacities, so the
  /// figure is the same at any thread count and sink backend). The
  /// registry is not counted: it may be shared. Requires finalize().
  [[nodiscard]] std::size_t bytes() const;

  /// Stream the observation dump (sorted by site, round) as CSV — no
  /// materialized copy of the rows. The rows are cut into fixed chunks
  /// that `threads` workers (0 = one per hardware thread) format into
  /// their own buffers and write in chunk order, so the bytes do not
  /// depend on `threads`; 1, or a store that fits one chunk, formats on
  /// the calling thread and builds no pool. Requires finalize(). Throws
  /// IoError when the stream fails, after writing nothing past the
  /// failed chunk.
  void write_csv(std::ostream& out, std::size_t threads = 0) const;
  /// Rows per chunk of write_csv: the unit a worker formats and writes.
  static constexpr std::size_t kCsvChunkRows = 1024;
  /// Convenience wrapper over write_csv for small stores and tests.
  [[nodiscard]] std::string to_csv() const;

 private:
  mutable util::Mutex mu_;
  /// Internally synchronized (its own mutex); possibly shared.
  std::shared_ptr<PathRegistry> paths_;
  /// Phase contract: appended under mu_ during ingest, ordered in place
  /// by finalize() (which holds mu_), and read lock-free afterwards. Ingest
  /// and analysis are separate phases — Campaign::finalize() is the
  /// barrier — so `rows_` and the fields finalize() publishes are
  /// intentionally NOT lock-annotated.
  std::vector<Observation> rows_;
  std::vector<std::uint32_t> site_ids_;  ///< Sorted sites present; phase-published.
  /// site_ids_[k]'s rows are rows_[site_begin_[k], site_begin_[k + 1]);
  /// one entry per site plus the end offset. Phase-published.
  std::vector<std::size_t> site_begin_;
  /// rounds_[i] is round first_round_ + i's counters: the array spans
  /// the rounds from the lowest counted to the highest, so a store that
  /// counts one late round (a W6D store) holds one entry, not every
  /// round before it. first_round_ is meaningless while rounds_ is empty.
  std::vector<RoundCounters> rounds_ V6MON_GUARDED_BY(mu_);
  std::uint32_t first_round_ V6MON_GUARDED_BY(mu_) = 0;
  bool finalized_ = false;  ///< Phase-published (see rows_).

  /// The round's slot, widening rounds_ to cover it (a round below
  /// first_round_ prepends).
  RoundCounters& round_slot(std::uint32_t round) V6MON_REQUIRES(mu_);
};

/// Read-only abstraction the analysis layer consumes: per-site series,
/// the path, route and pair registry, and round counters — without coupling to how the
/// observations were ingested. A view over an in-memory campaign store
/// and a view over a replayed spool are indistinguishable to analysis.
///
/// Implicitly convertible from a finalized ResultsDb (a view is exactly
/// a non-owning handle onto one).
class ObservationView {
 public:
  ObservationView() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a ResultsDb *is* a view source.
  ObservationView(const ResultsDb& db) : db_(&db) {}

  [[nodiscard]] bool valid() const { return db_ != nullptr; }

  [[nodiscard]] std::size_t num_sites() const { return db_->num_sites(); }
  [[nodiscard]] const std::vector<std::uint32_t>& site_ids() const {
    return db_->site_ids();
  }
  [[nodiscard]] SiteSeries series(std::uint32_t site) const {
    return db_->series(site);
  }
  [[nodiscard]] const PathRegistry& paths() const { return db_->paths(); }
  /// An observation's two route ids; lock-free.
  [[nodiscard]] RoutePair pair(PairId id) const { return db_->paths().pair(id); }
  /// A route's origin and path id; lock-free.
  [[nodiscard]] Route route(RouteId id) const { return db_->paths().route(id); }
  [[nodiscard]] const RoundCounters& round_counters(std::uint32_t round) const {
    return db_->round_counters(round);
  }
  [[nodiscard]] std::size_t rounds() const { return db_->rounds(); }

 private:
  const ResultsDb* db_ = nullptr;
};

}  // namespace v6mon::core
