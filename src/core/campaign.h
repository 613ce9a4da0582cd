#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/results.h"
#include "core/spool.h"
#include "core/thread_pool.h"
#include "core/world.h"

namespace v6mon::core {

class WorldTimeline;

/// Where a round's rows go once the coordinator ingests them. Both
/// backends produce byte-identical observables.
enum class SinkBackend : std::uint8_t {
  kSharded,  ///< In memory: each round merges into the ResultsDb (default).
  kSpool,    ///< Out-of-core: binary spool files, replayed at finalize().
};

/// Default worker cap: the paper's tool monitors "no more than 25" sites
/// in parallel.
inline constexpr std::size_t kMaxParallelSites = 25;

/// Campaign-level configuration.
struct CampaignConfig {
  MonitorConfig monitor;
  /// Worker threads; 0 = min(kMaxParallelSites, hardware).
  std::size_t threads = 0;
  /// Root seed for all measurement randomness (derives per-site streams,
  /// so results are independent of thread scheduling).
  std::uint64_t seed = 1;
  /// Settle every site whose regular-round DNS fate decides its outcome
  /// in the round walk instead of running the full pipeline: kV4Only
  /// for a site without an AAAA record that loses no query, kDnsFailed
  /// when both queries are lost, and with one loss whatever the
  /// monitor's query-order coin makes of it (see
  /// Campaign::SiteScanIndex::kFate). Only dual-stack sites with a clean
  /// fate run the pipeline. Purely an optimization; tests cover
  /// equivalence at every timeout_prob.
  bool fast_path = true;
  /// Mini-rounds run during the World IPv6 Day event (the paper monitored
  /// participants every 30 minutes for the day).
  std::size_t w6d_mini_rounds = 12;
  /// Results-ingest backend; a pure performance/memory knob (every
  /// backend reproduces the same bytes).
  SinkBackend sink = SinkBackend::kSharded;
  /// Directory for SinkBackend::kSpool files (vp<i>.spool and
  /// vp<i>_w6d.spool). Must exist and be writable.
  std::string spool_dir = ".";
};

/// Exclusive upper bound on World::num_rounds for a campaign. The
/// per-site monitor stream key packs `vp * kMaxCampaignRounds + round`,
/// so a larger round would hand vantage point vp + 1's stream to vp.
/// Every round also fits an observation row's 16-bit round field.
inline constexpr std::uint32_t kMaxCampaignRounds = 4096;
static_assert(kMaxCampaignRounds - 1 <=
                  std::numeric_limits<decltype(Observation::round)>::max(),
              "campaign rounds must fit Observation::round");

/// Runs the paper's measurement campaign: for every vantage point, one
/// monitoring round per campaign round from the VP's start round onward,
/// plus the optional World IPv6 Day special (participants only, many
/// samples, stored separately).
class Campaign {
 public:
  /// Throws ConfigError when world.num_rounds >= kMaxCampaignRounds.
  Campaign(const World& world, CampaignConfig config);

  /// Evolving-world campaign: the timeline owns the world and advances
  /// it at configured rounds. The campaign measures against
  /// `timeline.world()` and drives the timeline from run(). A timeline
  /// with no epochs behaves exactly like the const-world constructor —
  /// byte-identical output, no epoch machinery on any path.
  Campaign(WorldTimeline& timeline, CampaignConfig config);

  /// Run all regular rounds for all vantage points as epoch segments:
  /// the pending epoch rounds cut [0, num_rounds] into segments, each
  /// vantage point runs a segment's rounds as one chain (VPs
  /// concurrently, on parallel_index), and each segment ending at epoch
  /// round e is followed by `advance_world(e)` once every chain is done,
  /// so all VPs observe round r under the same world version. Every RNG
  /// stream is keyed by data (vp, round, site; DNS loss by site alone),
  /// never by schedule order. Throws ContractError after finalize().
  void run();

  /// Apply every pending world epoch with epoch round <= `round`:
  /// advances the timeline, then notifies each vantage point's monitor
  /// (resolved-row purge) and adds sites that gained an AAAA to
  /// the round walk's candidates.
  /// Coordinator-only, quiescent: no run_round may be in flight.
  /// No-op without a timeline. run() calls this; exposed for tests and
  /// examples that drive rounds manually.
  void advance_world(std::uint32_t round);

  /// Run one round for one vantage point (exposed for tests/examples) and
  /// ingest it, its counters included, before returning. Safe to call
  /// concurrently from several threads — rounds on one vantage point's
  /// store are serialized internally. The first round of a campaign (here
  /// or in run()) fills in the per-site DNS fates the fast path reads,
  /// over the campaign pool, and builds the work-list index; racing first
  /// callers wait for that one build.
  /// Requires round < kMaxCampaignRounds.
  void run_round(std::size_t vp_index, std::uint32_t round);

  /// Run the World IPv6 Day special event for every vantage point, one
  /// chain of mini-rounds per vantage point (VPs concurrently). No-op
  /// when the world has no W6D round.
  void run_w6d();

  [[nodiscard]] const ResultsDb& results(std::size_t vp_index) const {
    return *stores_.at(vp_index).db;
  }
  [[nodiscard]] const ResultsDb& w6d_results(std::size_t vp_index) const {
    return *w6d_stores_.at(vp_index).db;
  }
  [[nodiscard]] const World& world() const { return world_; }
  [[nodiscard]] const CampaignConfig& config() const { return config_; }
  /// One vantage point's measurement pipeline, for inspecting its
  /// resolved-site rows. Quiescent callers only, like fallback_stats.
  [[nodiscard]] const Monitor& monitor(std::size_t vp_index) const {
    return monitors_.at(vp_index);
  }

  /// Conn-layer verdict totals for one vantage point (ISSUE 9; zeros
  /// under FallbackPolicy::kNone). Deterministic across threads and sink
  /// backends. Quiescent callers only — between rounds or after run().
  [[nodiscard]] FallbackStats fallback_stats(std::size_t vp_index) const {
    return monitors_.at(vp_index).fallback_stats();
  }

  /// Per-vantage-point DNS totals over every site decision, regular and
  /// W6D: two queries each, and the timeouts of its query loss. Each
  /// field is a sum of per-site counts (pure functions of the seed), so
  /// the totals are deterministic across threads and sinks; the same
  /// numbers feed the global dns.* metrics counters, which lose the
  /// per-VP split this keeps.
  [[nodiscard]] dns::Resolver::Stats dns_stats(std::size_t vp_index) const;

  /// End ingest and build the analysis views: close and replay every
  /// spool file (the kSpool backend), then finalize every
  /// ResultsDb, which freezes the VPs' registries; each pass runs the
  /// stores in parallel on the campaign pool. Adds the stores' bytes
  /// (ResultsDb::bytes) to the `mem.results_bytes` counter, the catalog's
  /// (SiteCatalog::bytes) to `mem.catalog_bytes`, the vantage points'
  /// RIBs (Rib::bytes) to `mem.rib_bytes` and the monitors' resolved-site
  /// tables (rows, index and key map) and route registries
  /// (ResolvedSiteTable::bytes, PathRegistry::bytes) to
  /// `mem.resolved_slots_bytes`, and the round walk's site flags, listed
  /// counts and candidates (by size) to `mem.work_list_bytes`. Call after
  /// all runs, before analysis. Idempotent; no run_round / run_w6d calls may
  /// follow. When stores fail (Error, IoError from a spool), every other
  /// store still finalizes and the error of the first failing store —
  /// regular stores in VP order, then W6D stores — is thrown.
  void finalize();

 private:
  /// One vantage point's results store: the database, the spool in front
  /// of it for the kSpool backend, and the epoch lock serializing rounds
  /// on this store.
  struct VpStore {
    std::unique_ptr<ResultsDb> db;
    /// Non-null for the kSpool backend: rounds stream here and are
    /// replayed into `db` at finalize().
    std::unique_ptr<SpoolSink> spool;
    /// Held for the whole of a round (or a finalize) on this store. It
    /// guards a *protocol* (one round's resolution and ingest at a time
    /// per vantage point), not a field: `db`/`spool` are set once at
    /// construction, and `spool` is used only under this lock.
    util::Mutex epoch_mu;
    /// Rows the store is expected to end with (expect_rows); a spool
    /// store reserves them just before its replay.
    std::size_t expected_rows = 0;
  };

  /// Everything a round's work list is built from, so that building it
  /// costs O(work) instead of O(catalog). Sites that are never dual-stack
  /// and whose DNS fate is clean settle as kV4Only at every round they
  /// are listed; the index only *counts* them (per-round prefix sums of
  /// list entries) and keeps packed rows for the remaining candidates,
  /// which the round walks with the fast-path predicates. Site id ==
  /// catalog position.
  struct SiteScanIndex {
    /// One byte of flags per site (below). The fate bits are set once,
    /// in parallel, by ensure_work_index (not here: the fill seeds one
    /// MT19937-64 stream per site), and stay clear with the fast path
    /// off or no DNS loss.
    std::vector<std::uint8_t> flags;
    /// listed[c][r]: how many sites of supplement class c (0: listed
    /// directly, 1: only through the DNS-cache supplement) have
    /// first_seen_round <= r, for every round r < kMaxCampaignRounds.
    /// A site first listed later can never be measured.
    std::array<std::vector<std::uint32_t>, 2> listed;

    /// A site the round walk visits, with the schedule fields it reads.
    struct Candidate {
      std::uint32_t id;
      std::uint32_t first_seen;
      std::uint32_t v6_from;
      std::uint32_t v6_until;
      std::uint8_t flags;
    };
    /// Sorted by id: every site with an AAAA window or a DNS-fate bit
    /// (every site with the fast path off). Built on first use, after the
    /// fate fill; advance_world adds the sites that gain an AAAA record.
    std::vector<Candidate> candidates;
    std::once_flag build_once;

    /// Listed only through the DNS-cache supplement.
    static constexpr std::uint8_t kViaDnsCache = 1;
    /// The site's DNS fate in a regular round: whether its first and its
    /// second query time out (draw_query_loss). A regular round's loss
    /// stream is keyed by the site alone, so the fate is the same at
    /// every round and vantage point. Both queries lost means kDnsFailed,
    /// whichever query the monitor sends first. With one loss, the
    /// monitor's query-order coin (keyed per vp, round and site) says
    /// whether the A is lost (kV6Only when dual-stack at the round, else
    /// kDnsFailed) or the AAAA (kV4Only). No loss means kV4Only without
    /// an AAAA record; only a dual-stack site with a clean fate runs the
    /// pipeline.
    static constexpr std::uint8_t kFirstQueryLost = 2;
    static constexpr std::uint8_t kSecondQueryLost = 4;
    static constexpr std::uint8_t kFate = kFirstQueryLost | kSecondQueryLost;

    explicit SiteScanIndex(const web::SiteCatalog& catalog);
    /// Sites on the list at `round` for a vantage point with or without
    /// the DNS-cache supplement.
    [[nodiscard]] std::uint64_t listed_at(std::uint32_t round,
                                          bool supplement) const;
    /// The walk's row for site `id`, first listed at `first_seen`, read
    /// from the catalog's current state.
    [[nodiscard]] Candidate candidate(const web::SiteCatalog& catalog, std::uint32_t id,
                                      std::uint32_t first_seen) const;
  };

  /// Populate a freshly emplaced store in place (VpStore is immovable),
  /// on the vantage point's registry.
  void init_store(VpStore& store, std::size_t vp_index, const char* tag);
  /// Record that `store` will end with `rows` rows, and reserve them now
  /// for an in-memory store (a spool store reserves before its replay),
  /// so the store allocates its rows once.
  static void expect_rows(VpStore& store, std::size_t rows);
  /// The rows run() records in vantage point `vp_index`'s regular store,
  /// from the round walk's candidates and the pending AAAA grants: under
  /// the fast path every work-list site records one row, so the count is
  /// exact; with it off, an upper bound. Call after the candidates are
  /// built and before any epoch is applied.
  [[nodiscard]] std::size_t regular_rows(std::size_t vp_index) const;
  /// Measure `sites` for one vantage point, then ingest the round into
  /// `store` on the calling thread: the recorded rows in work-list order
  /// and `delta` (the caller's listed and settled counts) plus every
  /// measured site's status, in one batch, even when `sites` is empty.
  /// Fans the sites out through parallel_index, or loops them on the
  /// calling thread when there are too few to pay for waking helpers
  /// (kFanOutSitesPerWorker) — a pure scheduling choice.
  void run_sites(std::size_t vp_index, std::uint32_t round,
                 const std::vector<std::uint32_t>& sites, VpStore& store,
                 std::uint64_t salt, RoundCounters delta);
  void run_w6d_for_vp(std::size_t vp_index,
                      const std::vector<std::uint32_t>& participants);
  /// On first use: set the fate bits of scan_.flags (fast path on only),
  /// then build scan_.candidates and size every regular store
  /// (regular_rows). Thread-safe: concurrent first callers block until
  /// the one build is done.
  void ensure_work_index();

  /// Fill in config.threads when left at 0 (done before pool_ spins up).
  static CampaignConfig resolve(CampaignConfig config);

  const World& world_;
  /// Non-null for the evolving-world constructor; the pointee owns the
  /// World that `world_` references and mutates it only inside
  /// advance_world (quiescent round boundaries).
  WorldTimeline* timeline_ = nullptr;
  CampaignConfig config_;
  /// One pool for the campaign's lifetime: rounds × VPs × mini-rounds
  /// reuse its workers instead of constructing/joining a pool per
  /// run_sites call. Sites are handed out through parallel_index's atomic
  /// work-stealing counter, not fixed chunks, so a straggler (dual-stack
  /// site with a long CI loop) only ever delays its own worker.
  ThreadPool pool_;
  /// Per-VP DNS totals (see dns_stats), one cache line per VP. Relaxed
  /// atomics: run_sites adds its queries once and its timeouts once per
  /// block, and the round scan adds what its settled sites would have;
  /// sums of non-negative integers are schedule-independent.
  struct alignas(64) DnsTally {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> timeouts{0};
  };

  /// Deques: VpStore holds a mutex and is therefore immovable.
  std::deque<VpStore> stores_;
  std::deque<VpStore> w6d_stores_;
  std::deque<DnsTally> dns_tallies_;
  std::vector<Monitor> monitors_;
  SiteScanIndex scan_;
  bool finalized_ = false;
};

}  // namespace v6mon::core
