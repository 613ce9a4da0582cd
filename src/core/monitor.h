#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/fallback.h"
#include "core/resolved_site.h"
#include "core/results.h"
#include "core/vantage.h"
#include "core/world.h"
#include "core/world_delta.h"
#include "dns/resolver.h"
#include "transport/connection.h"
#include "transport/download.h"
#include "transport/path.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_annotations.h"
#include "web/site.h"

namespace v6mon::core {

/// Monitoring-tool configuration — the constants of the paper's Fig. 2
/// pipeline.
struct MonitorConfig {
  /// Pages are "identical" when byte counts are within this fraction.
  double identity_threshold = 0.06;
  /// Downloads repeat until the CI half-width of mean download time is
  /// within this fraction of the mean...
  double ci_rel = 0.10;
  /// ...at this confidence level.
  double confidence = 0.95;
  std::size_t min_downloads = 3;
  std::size_t max_downloads = 30;
  /// Persistent per-path quality spread (lognormal sigma, mean 1): real
  /// paths differ in congestion/provisioning far beyond their nominal
  /// metrics. Keyed by the AS path *sequence* and family-blind, so the two
  /// families of an SP site share one factor (their comparison stays
  /// tight) while DP sites draw independent factors (wide v6/v4 spread —
  /// the reconciliation of the paper's Fig. 3b with its Table 11).
  double path_quality_sigma = 0.55;
  /// Attempts allowed for the initial identity-phase fetches.
  std::size_t fetch_retries = 3;

  dns::Resolver::Options dns;
  transport::DownloadParams download;

  /// What the simulated client does when the IPv6 connection path is
  /// broken (ISSUE 9). kNone (the default) runs the pre-conn-layer
  /// pipeline byte-for-byte; the other modes add a conn-establishment
  /// pass on a dedicated RNG child stream, leaving every measurement
  /// observation untouched.
  FallbackPolicy fallback = FallbackPolicy::kNone;
  transport::ConnParams conn;

  /// Domain checks on the pipeline constants; throws v6mon::ConfigError.
  /// In particular `max_downloads` must fit the uint16_t sample-count
  /// fields (Observation::v4_samples etc.) — a larger budget would
  /// silently wrap the recorded counts. Called by Monitor and Campaign
  /// before any measurement runs.
  void validate() const;
};

/// Whether each of one site decision's two DNS queries times out, in the
/// order they are sent.
struct QueryLoss {
  bool first = false;
  bool second = false;
  [[nodiscard]] std::uint64_t timeouts() const {
    return std::uint64_t{first} + std::uint64_t{second};
  }
};

/// The loss of the two queries: one `chance(timeout_prob)` draw each, in
/// query order, on the stream `root.child_seed("dns", salt ^ site_id)`;
/// seeds and draws nothing at p == 0.
[[nodiscard]] QueryLoss draw_query_loss(const util::Rng& root, double timeout_prob,
                                        std::uint64_t salt, std::uint32_t site_id);

/// The per-site monitoring pipeline of the paper's Fig. 2, bound to one
/// vantage point:
///
///   DNS A+AAAA -> (both?) -> fetch main page over v4 and v6 ->
///   identity check (6%) -> repeated downloads until the 95% CI of mean
///   download time is within 10% of the mean -> record speeds + AS paths.
///
/// `monitor_site` is a pure function of (site, round, loss, rng) given the
/// immutable world, so results are identical however sites are scheduled
/// across threads.
/// Per-vantage-point measurement pipeline. Confinement audit (ISSUE 10,
/// DESIGN.md §15): a Monitor belongs to exactly one VP, and the campaign
/// runs that VP's rounds as one chain on one thread — so even though
/// *different* VPs' rounds overlap in time, no Monitor is ever entered
/// by two rounds concurrently, and the intra-round rules below are the
/// only concurrency this class sees. Everything it shares across VPs is
/// either immutable for the duration of a round (the World — mutated
/// only between epoch segments, while no chain runs) or internally
/// synchronized per-instance state that no other VP can reach (the
/// resolved-site table and fallback tally are members, one set per
/// Monitor, one Monitor per VP).
class Monitor {
 public:
  Monitor(const World& world, const VantagePoint& vp, MonitorConfig config);

  /// Run the pipeline for one site at one round. The catalog answers the
  /// A query, and the AAAA while the site is dual-stack, unless `loss`
  /// times the query out. `rng` must be dedicated to this
  /// (site, round) so threading cannot reorder draws. The stream is
  /// consumed, and taken by reference so that a primed engine
  /// (Mt64Engine::prime) is never copied. Non-const because
  /// it lazily fills the site's resolved-site row on first successful
  /// resolution; safe to call concurrently for *distinct* sites (each
  /// slot is touched by exactly one caller per ingest epoch).
  [[nodiscard]] Observation monitor_site(const web::Site& site, std::uint32_t round,
                                         QueryLoss loss, util::Rng&& rng,
                                         PathRegistry& paths);

  /// The query-order coin: monitor_site's first draw on its stream,
  /// true when the A query goes out before the AAAA, so that `loss.first`
  /// is the A's verdict. The campaign's round walk draws it too, to
  /// settle one-loss sites without the pipeline.
  [[nodiscard]] static bool a_query_first(util::Rng& rng) { return rng.chance(0.5); }

  [[nodiscard]] const MonitorConfig& config() const { return config_; }
  [[nodiscard]] const VantagePoint& vantage_point() const { return vp_; }

  /// Accumulated conn-layer verdicts for this vantage point (zeros under
  /// FallbackPolicy::kNone). Deterministic in thread count: every field
  /// is a sum over the per-site evaluations, which are pure functions of
  /// (site, round, seed). Quiescent callers only — take a snapshot
  /// between rounds or after the campaign, not while workers run.
  [[nodiscard]] FallbackStats fallback_stats() const {
    util::LockGuard lock(fallback_->mu);
    return fallback_->stats;
  }

  // --- Campaign-lifetime resolved-site rows ------------------------------
  //
  // Everything monitor_site's phase 2 derives (RIB routes, characterized
  // + 6to4-adjusted paths, the phase-2 verdict) is a pure function of the
  // immutable world per (site, hosting epoch); resolving it once and
  // reusing the row leaves only DNS draws and download sampling per
  // round. Rows are filled *lazily*: the worker monitoring a site writes
  // its row the first time the site's resolution actually runs, so no
  // work is ever spent on sites that never reach phase 2. A filled row's
  // addresses are the catalog's at every round of its hosting epoch
  // (grant_aaaa only rewrites sites without an AAAA, which have no filled
  // row), which monitor_site asserts.
  //
  // Concurrency: assign_resolve_slots grows the table and must be
  // serialized with every other use of this Monitor — Campaign holds the
  // vantage point's ingest-epoch mutex across each round. The lazy fills
  // are parallel-safe because a site appears at most once per work list,
  // so each slot is written by exactly one worker per epoch, and the
  // epoch's join barrier publishes rows to later rounds.

  /// Coordinator-only: ensure table slots exist for `sites` (catalog site
  /// ids) at `round` before workers run (table growth must not race the
  /// lazy fills).
  void assign_resolve_slots(std::span<const std::uint32_t> sites,
                            std::uint32_t round);

  [[nodiscard]] const ResolvedSiteTable& resolved_sites() const { return resolved_; }

  /// Epoch-boundary row maintenance (coordinator-only, quiescent): the
  /// world just advanced to `summary.epoch`. Invalidates resolved-site
  /// rows whose cached IPv6 route (or absence of one), and with it the
  /// row's characterized paths, may no longer hold:
  ///
  ///   - rows routed through a touched AS, or to a changed destination;
  ///   - 6to4 rows and unrouted rows, whenever the v6 data plane changed
  ///     at all (anycast re-election and relay retirement act at a
  ///     distance, so these are invalidated conservatively).
  ///
  /// IPv4 state is never invalidated — the delta vocabulary is v6-only.
  /// Conservative invalidation is byte-safe: refills are deterministic
  /// functions of the post-epoch world. New fills are stamped with
  /// `summary.epoch`.
  void on_world_change(const WorldChangeSummary& summary);

  /// Outcome of one family's repeat-until-CI download loop. Public only
  /// for the measurement-kernel microbench and tests; not a stable API.
  struct FamilyMeasurement {
    bool ok = false;
    double mean_time_s = 0.0;
    double speed_kBps = 0.0;
    std::uint16_t samples = 0;
  };

  /// Repeated downloads until the confidence target; nullopt-like failure
  /// when too many attempts fail. Batched kernel: samples come from
  /// simulate_batch into per-worker scratch, the CI check is the
  /// precomputed gate table, and attempt/failure counts accumulate in
  /// `tally` (the caller flushes once). Public only for the microbench
  /// and tests; not a stable API.
  FamilyMeasurement measure_family(const transport::PreparedDownload& prep,
                                   util::Rng& rng,
                                   transport::DownloadTally& tally) const;

 private:
  /// Phase-2 resolution against explicit addresses (the row content
  /// shared by table fills and the inline fallback).
  void resolve_addresses(const ip::Ipv4Address& v4_addr,
                         const ip::Ipv6Address& v6_addr,
                         ResolvedSiteRow& row) const;

  /// characterize_path from this VP plus the path's quality factor. Runs
  /// once per row fill: the resolved-site row is the memo.
  [[nodiscard]] transport::PathCharacteristics characterize(
      const std::vector<topo::Asn>& as_path, ip::Family family) const;

  /// Characterize the v6 side of a row with a v6 route, applying the
  /// hidden 6to4 relay leg. A 6to4 destination with no working relay
  /// comes back with `row.v6_path.valid == false` (the route exists but
  /// its data plane blackholes) and a false return.
  bool characterize_v6_path(ResolvedSiteRow& row) const;

  /// Conn-establishment pass for one dual-stack site (fallback !=
  /// kNone): dial per the policy on the dedicated `conn_rng` stream,
  /// fold the verdict into fallback_ and the conn.* metrics. Null path
  /// pointers mean "no RIB route" for that family.
  void evaluate_fallback(const transport::PathCharacteristics* v4,
                         const transport::PathCharacteristics* v6,
                         util::Rng& conn_rng);

  /// Mutex-guarded FallbackStats behind a pointer so Monitor stays
  /// movable. Merges are one short lock per dual-stack site — rare
  /// relative to the catalog scan — and uint64 sums keep the totals
  /// schedule-independent.
  struct FallbackAccumulator {
    util::Mutex mu;
    FallbackStats stats V6MON_GUARDED_BY(mu);
  };

  const World& world_;
  const VantagePoint& vp_;
  MonitorConfig config_;
  transport::DownloadSimulator sim_;
  transport::ConnectionModel conn_;
  /// True when the fallback policy needs routed-side paths characterized
  /// even for rows whose phase-2 gate fails (the conn layer dials them);
  /// false skips characterizing the routed side of a row whose gate
  /// already failed, as the kNone pipeline always has.
  bool conn_needs_paths_ = false;
  std::unique_ptr<FallbackAccumulator> fallback_;
  /// Precomputed CI stopping gates for (ci_rel, confidence) over
  /// n in [2, max_downloads]; built after config validation.
  util::CiGateTable gates_;
  /// Write-once per-(site, hosting epoch) phase-2 rows; see class comment.
  ResolvedSiteTable resolved_;
  /// World epoch stamped onto new resolved-row fills; bumped by
  /// on_world_change at quiescent round boundaries only.
  std::uint32_t current_world_epoch_ = 0;
};

}  // namespace v6mon::core
