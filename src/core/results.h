#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "topo/as_graph.h"
#include "util/thread_annotations.h"

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

/// Deduplicating store of AS paths. Measurement records reference paths
/// by id so a campaign's millions of observations don't copy vectors.
///
/// The intern index hashes and compares the ASN *span* directly — no
/// serialized string key — so the common already-interned lookup does
/// zero allocations. Thread-safe behind one mutex: in the sharded sink
/// every worker owns a private registry (the mutex is uncontended) and
/// ids are canonicalized into the results database's registry at merge
/// time; ids are therefore stable within one registry but not an
/// observable across runs (path *content* is).
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

  [[nodiscard]] const std::vector<topo::Asn>& path(PathId id) const;
  [[nodiscard]] std::size_t size() const;

  /// Render "AS1 AS2 AS3" for logs/CSV.
  [[nodiscard]] std::string to_string(PathId id) const;

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

  mutable util::Mutex mu_;
  std::deque<std::vector<topo::Asn>> paths_ V6MON_GUARDED_BY(mu_);
  std::unordered_map<SpanKey, PathId, SpanHash, SpanEq> index_
      V6MON_GUARDED_BY(mu_);
};

/// One monitoring observation of one site in one round from one vantage
/// point.
struct Observation {
  std::uint32_t site = 0;
  std::uint32_t round = 0;
  MonitorStatus status = MonitorStatus::kDnsFailed;
  float v4_speed_kBps = 0.0f;  ///< Valid when status == kMeasured.
  float v6_speed_kBps = 0.0f;
  std::uint16_t v4_samples = 0;
  std::uint16_t v6_samples = 0;
  PathId v4_path = kNoPath;  ///< AS_PATH from the VP's RIB (if available).
  PathId v6_path = kNoPath;
  topo::Asn v4_origin = topo::kNoAs;  ///< Destination AS per the RIB.
  topo::Asn v6_origin = topo::kNoAs;
};

/// Per-round aggregate counters (cover the whole catalog, including the
/// v4-only masses that get no per-site series).
struct RoundCounters {
  std::uint64_t listed = 0;
  std::uint64_t v4_only = 0;
  std::uint64_t v6_only = 0;
  std::uint64_t dual = 0;
  std::uint64_t dns_failed = 0;
  std::uint64_t measured = 0;
  std::uint64_t different_content = 0;
  std::uint64_t download_failed = 0;
};

inline RoundCounters& operator+=(RoundCounters& a, const RoundCounters& b) {
  a.listed += b.listed;
  a.v4_only += b.v4_only;
  a.v6_only += b.v6_only;
  a.dual += b.dual;
  a.dns_failed += b.dns_failed;
  a.measured += b.measured;
  a.different_content += b.different_content;
  a.download_failed += b.download_failed;
  return a;
}

/// Bucket `n` occurrences of one monitoring status into the round's
/// counters — the single definition of the status→counter mapping,
/// shared by the mutex store and every sink shard. The bulk form exists
/// for the campaign fast path, which settles hundreds of thousands of
/// v4-only sites per round: counters are additive, so one add of `n` is
/// byte-identical to `n` adds of one.
void apply_status(RoundCounters& c, MonitorStatus status, std::uint64_t n = 1);

/// A read-only window onto one site's observations: a contiguous run of
/// the finalized store's rows, sorted by round.
using SiteSeries = std::span<const Observation>;

/// All results collected by one vantage point over a campaign. Mirrors
/// the paper's per-vantage-point MySQL database: one row per
/// (site, round) observation.
///
/// Two phases. During ingest `add`/`merge_rows` append rows in arrival
/// order. `finalize()`, called once after ingest, stable-sorts the rows
/// in place by (site, round) and indexes each site's run. Every read of
/// the rows (`series`, `site_ids`, `write_csv`) requires a finalized
/// database; every write of them requires an unfinalized one.
class ResultsDb {
 public:
  /// Record a full observation (dual-stack sites). Thread-safe.
  void add(const Observation& obs);

  /// Bump per-round counters (by `n` at once — one lock however many
  /// sites are settled). Thread-safe.
  void count(std::uint32_t round, MonitorStatus status, std::uint64_t n = 1);
  void count_listed(std::uint32_t round, std::uint64_t n);

  /// Bulk ingest from a sink merge: appends the batch under one lock.
  /// The batch's path ids must already refer to this database's
  /// registry. Relative order of add() rows and merged batches is
  /// preserved.
  void merge_rows(std::span<const Observation> batch);
  /// Fold per-round counter deltas in: `deltas[i]` is round
  /// `first_round + i`'s (a sink flush's touched range, or one spool
  /// record). One lock for the whole range.
  void merge_counters(std::uint32_t first_round, std::span<const RoundCounters> deltas);

  [[nodiscard]] PathRegistry& paths() { return paths_; }
  [[nodiscard]] const PathRegistry& paths() const { return paths_; }

  /// Number of sites with at least one observation. Requires finalize().
  [[nodiscard]] std::size_t num_sites() const { return site_ids_.size(); }
  /// Ascending ids of all sites with observations. Requires finalize().
  [[nodiscard]] const std::vector<std::uint32_t>& site_ids() const {
    return site_ids_;
  }
  /// Per-site observation series, ordered by round; empty when the site
  /// has no observations. Requires finalize().
  [[nodiscard]] SiteSeries series(std::uint32_t site) const;

  [[nodiscard]] const RoundCounters& round_counters(std::uint32_t round) const;
  [[nodiscard]] std::size_t rounds() const {
    util::LockGuard lock(mu_);
    return rounds_.size();
  }

  /// Sort the rows by (site, round) and index each site's run. Rows
  /// sharing one (site, round) (W6D mini-rounds) keep their ingest
  /// order. Call exactly once, after ingest and before analysis.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Stream the observation dump (sorted by site, round) as CSV — no
  /// materialized copy of the rows, at most one 64 KiB block of text in
  /// memory. Requires finalize(). Throws IoError when the stream fails.
  void write_csv(std::ostream& out) const;
  /// Convenience wrapper over write_csv for small stores and tests.
  [[nodiscard]] std::string to_csv() const;

 private:
  mutable util::Mutex mu_;
  PathRegistry paths_;  ///< Internally synchronized (its own mutex).
  /// Phase contract: appended under mu_ during ingest, sorted in place by
  /// finalize() (which holds mu_), and read lock-free afterwards. Ingest
  /// and analysis are separate phases — Campaign::finalize() is the
  /// barrier — so `rows_` and the fields finalize() publishes are
  /// intentionally NOT lock-annotated.
  std::vector<Observation> rows_;
  std::vector<std::uint32_t> site_ids_;  ///< Sorted sites present; phase-published.
  /// site_ids_[k]'s rows are rows_[site_begin_[k], site_begin_[k + 1]);
  /// one entry per site plus the end offset. Phase-published.
  std::vector<std::size_t> site_begin_;
  std::vector<RoundCounters> rounds_ V6MON_GUARDED_BY(mu_);
  bool finalized_ = false;  ///< Phase-published (see rows_).

  RoundCounters& round_slot(std::uint32_t round) V6MON_REQUIRES(mu_);
};

/// Read-only abstraction the analysis layer consumes: per-site series,
/// the path registry, and round counters — without coupling to how the
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
  [[nodiscard]] const RoundCounters& round_counters(std::uint32_t round) const {
    return db_->round_counters(round);
  }
  [[nodiscard]] std::size_t rounds() const { return db_->rounds(); }

 private:
  const ResultsDb* db_ = nullptr;
};

}  // namespace v6mon::core
