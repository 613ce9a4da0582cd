#include "core/campaign.h"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <span>

#include "core/spool.h"
#include "core/thread_pool.h"
#include "core/world_timeline.h"
#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::core {

namespace {

/// MonitorStatus values, kDnsFailed (0) through kMeasured.
constexpr std::size_t kNumStatuses = static_cast<std::size_t>(MonitorStatus::kMeasured) + 1;

/// Whether the store keeps a site's observation as a row: every outcome
/// past DNS of a dual-stack site. The rest only count.
[[nodiscard]] constexpr bool records_row(MonitorStatus s) {
  return s == MonitorStatus::kMeasured || s == MonitorStatus::kDifferentContent ||
         s == MonitorStatus::kV4DownloadFailed || s == MonitorStatus::kV6DownloadFailed;
}

/// Campaign-layer counter handles. Status counters are indexed by the
/// MonitorStatus enum value; all of them are deterministic in thread
/// count and sink backend (each counts every listed site once per round).
struct CampaignMetricIds {
  obs::MetricId fast_path_sites = obs::metrics().counter("campaign.fast_path_sites");
  obs::MetricId fast_path_coin_sites =
      obs::metrics().counter("campaign.fast_path_coin_sites");
  obs::MetricId sites_monitored = obs::metrics().counter("campaign.sites_monitored");
  obs::MetricId ingest_rows = obs::metrics().counter("ingest.rows");
  obs::MetricId ingest_flushes = obs::metrics().counter("ingest.flushes");
  obs::MetricId results_bytes = obs::metrics().counter("mem.results_bytes");
  obs::MetricId catalog_bytes = obs::metrics().counter("mem.catalog_bytes");
  obs::MetricId rib_bytes = obs::metrics().counter("mem.rib_bytes");
  obs::MetricId resolved_slots_bytes = obs::metrics().counter("mem.resolved_slots_bytes");
  obs::MetricId work_list_bytes = obs::metrics().counter("mem.work_list_bytes");
  obs::MetricId dns_queries = obs::metrics().counter("dns.queries");
  obs::MetricId dns_timeouts = obs::metrics().counter("dns.timeouts");
  obs::MetricId status[kNumStatuses] = {
      obs::metrics().counter("monitor.status.dns-failed"),
      obs::metrics().counter("monitor.status.v4-only"),
      obs::metrics().counter("monitor.status.v6-only"),
      obs::metrics().counter("monitor.status.v4-download-failed"),
      obs::metrics().counter("monitor.status.v6-download-failed"),
      obs::metrics().counter("monitor.status.different-content"),
      obs::metrics().counter("monitor.status.measured"),
  };

  [[nodiscard]] obs::MetricId status_id(MonitorStatus s) const {
    return status[static_cast<std::size_t>(s)];
  }
};

const CampaignMetricIds& campaign_metric_ids() {
  static const CampaignMetricIds ids;
  return ids;
}

/// DNS queries monitor_site issues per site decision: one A, one AAAA.
constexpr std::uint64_t kQueriesPerSite = 2;

/// run_sites fans a round out through parallel_index only when it has at
/// least this many sites per pool worker; smaller rounds loop inline on
/// the calling thread. Fanning out costs a helper submit and wake-up per
/// worker, and a nested fan-out competes with other vantage points'
/// chains for the same workers. The multi-VP study's rounds (median 25
/// sites) measured slower fanned out, while the paper study's rounds
/// (657 to 3,370 sites) gain from it: workers left idle at the end of a
/// segment help the chains still running. At 4 threads the threshold
/// (64) is 2.5x above the one median and 10x below the other minimum.
constexpr std::size_t kFanOutSitesPerWorker = 16;

/// Seed of monitor_site's stream for one site at one (vp, round): keyed
/// per (vp, round, site, salt). The one definition run_sites and the
/// round walk's query-order coin share.
[[nodiscard]] std::uint64_t monitor_stream_seed(const util::Rng& root,
                                                std::size_t vp_index,
                                                std::uint32_t round,
                                                std::uint64_t salt,
                                                std::uint32_t site_id) {
  const std::uint64_t key =
      ((static_cast<std::uint64_t>(vp_index) * kMaxCampaignRounds + round) << 32) |
      (site_id ^ salt);
  return root.child_seed("monitor", key);
}

/// Sites whose monitor streams are seeded together.
constexpr std::size_t kLanes = util::Mt64Engine::kPrimeLanes;

/// The monitor streams of up to kLanes sites at one (vp, round, salt),
/// primed in lock-step: stream k draws exactly what
/// Rng(monitor_stream_seed(..., ids[k])) draws. A fresh stream's first
/// draw seeds 156 words in a serial chain; four interleaved chains cost
/// little more than one.
class MonitorStreams {
 public:
  MonitorStreams(const util::Rng& root, std::size_t vp_index, std::uint32_t round,
                 std::uint64_t salt, std::span<const std::uint32_t> ids) {
    V6MON_REQUIRE(ids.size() <= kLanes, "too many sites for one stream block");
    std::array<util::Mt64Engine*, kLanes> engines{};
    for (std::size_t k = 0; k < ids.size(); ++k) {
      engines[k] =
          &streams_[k].emplace(monitor_stream_seed(root, vp_index, round, salt, ids[k]))
               .engine();
    }
    util::Mt64Engine::prime(std::span(engines.data(), ids.size()));
  }

  util::Rng& operator[](std::size_t k) { return *streams_[k]; }

 private:
  std::array<std::optional<util::Rng>, kLanes> streams_;
};

}  // namespace

CampaignConfig Campaign::resolve(CampaignConfig config) {
  config.monitor.validate();
  if (config.threads == 0) {
    config.threads = std::min(kMaxParallelSites, resolve_threads(0));
  }
  return config;
}

void Campaign::init_store(VpStore& store, std::size_t vp_index, const char* tag) {
  // Rows carry pair ids of the VP's registry, and the store reads it.
  Monitor& monitor = monitors_[vp_index];
  store.db = std::make_unique<ResultsDb>(monitor.shared_routes());
  if (config_.sink == SinkBackend::kSpool) {
    store.spool = std::make_unique<SpoolSink>(
        config_.spool_dir + "/vp" + std::to_string(vp_index) + tag + ".spool",
        monitor.routes());
  }
}

void Campaign::expect_rows(VpStore& store, std::size_t rows) {
  store.expected_rows = rows;
  if (store.spool == nullptr) store.db->reserve(rows);
}

std::size_t Campaign::regular_rows(std::size_t vp_index) const {
  const VantagePoint& vp = world_.vantage_points[vp_index];
  const std::uint32_t end = world_.num_rounds + 1;  // run() measures [0, end)
  // The rounds a site with AAAA window [from, until) is on the VP's work
  // list: listed, dual-stack, at or after the VP's start, with a clean
  // DNS fate under the fast path.
  const auto work_rounds = [&](std::uint32_t first_seen, std::uint32_t from,
                               std::uint32_t until, std::uint8_t flags) -> std::size_t {
    if (from == web::kNever) return 0;
    if ((flags & SiteScanIndex::kViaDnsCache) != 0 && !vp.uses_dns_cache_supplement) return 0;
    if (config_.fast_path && (flags & SiteScanIndex::kFate) != 0) return 0;
    const std::uint32_t lo = std::max({first_seen, from, vp.start_round});
    const std::uint32_t hi = std::min(until, end);
    return lo < hi ? hi - lo : 0;
  };
  std::size_t rows = 0;
  for (const SiteScanIndex::Candidate& c : scan_.candidates) {
    rows += work_rounds(c.first_seen, c.v6_from, c.v6_until, c.flags);
  }
  if (timeline_ != nullptr) {
    // A pending grant opens a window at its epoch round that never
    // closes; advance_world adds its site to the candidates then.
    const web::SiteCatalog& catalog = world_.catalog;
    const std::vector<EpochDeltas>& epochs = timeline_->epochs();
    for (std::size_t e = timeline_->current_epoch(); e < epochs.size(); ++e) {
      for (const WorldDelta& d : epochs[e].deltas) {
        if (d.kind != WorldDeltaKind::kSiteGainsAaaa) continue;
        rows += work_rounds(catalog.first_seen_round(catalog.site(d.site_id)),
                            epochs[e].round, web::kNever, scan_.flags[d.site_id]);
      }
    }
  }
  return rows;
}

Campaign::SiteScanIndex::SiteScanIndex(const web::SiteCatalog& catalog) {
  flags.resize(catalog.size(), 0);
  for (std::vector<std::uint32_t>& counts : listed) {
    counts.assign(kMaxCampaignRounds, 0);
  }
  // Flags are indexed by position; the catalog guarantees id == position,
  // and everything here silently breaks if that drifts.
  V6MON_REQUIRE(catalog.size() == 0 || catalog.sites().back().id == catalog.size() - 1,
                "site id != catalog position");
  for (const web::ListingRun& run : catalog.listing_runs()) {
    if (run.from_dns_cache) {
      std::fill(flags.begin() + run.begin, flags.begin() + run.end, kViaDnsCache);
    }
    if (run.first_seen_round < kMaxCampaignRounds) {
      listed[run.from_dns_cache ? 1 : 0][run.first_seen_round] += run.end - run.begin;
    }
  }
  // Histogram of first listed round -> sites listed by round r.
  for (std::vector<std::uint32_t>& counts : listed) {
    for (std::size_t r = 1; r < counts.size(); ++r) counts[r] += counts[r - 1];
  }
}

std::uint64_t Campaign::SiteScanIndex::listed_at(std::uint32_t round,
                                                 bool supplement) const {
  return std::uint64_t{listed[0][round]} + (supplement ? listed[1][round] : 0);
}

Campaign::SiteScanIndex::Candidate Campaign::SiteScanIndex::candidate(
    const web::SiteCatalog& catalog, std::uint32_t id, std::uint32_t first_seen) const {
  const web::V6Presence v6 = catalog.v6_presence(catalog.site(id));
  return {id, first_seen, v6.from_round, v6.until_round, flags[id]};
}

Campaign::Campaign(const World& world, CampaignConfig config)
    : world_(world), config_(resolve(std::move(config))), pool_(config_.threads),
      scan_(world.catalog) {
  if (world_.num_rounds >= kMaxCampaignRounds) {
    throw ConfigError("world num_rounds " + std::to_string(world_.num_rounds) +
                      " exceeds the campaign limit of " +
                      std::to_string(kMaxCampaignRounds - 1));
  }
  for (std::size_t vp = 0; vp < world_.vantage_points.size(); ++vp) {
    monitors_.emplace_back(world_, world_.vantage_points[vp], config_.monitor);
    init_store(stores_.emplace_back(), vp, "");
    init_store(w6d_stores_.emplace_back(), vp, "_w6d");
    dns_tallies_.emplace_back();
  }
}

dns::Resolver::Stats Campaign::dns_stats(std::size_t vp_index) const {
  const DnsTally& t = dns_tallies_.at(vp_index);
  dns::Resolver::Stats s;
  s.queries = t.queries.load(std::memory_order_relaxed);
  s.timeouts = t.timeouts.load(std::memory_order_relaxed);
  return s;
}

Campaign::Campaign(WorldTimeline& timeline, CampaignConfig config)
    : Campaign(timeline.world(), std::move(config)) {
  timeline_ = &timeline;
}

void Campaign::advance_world(std::uint32_t round) {
  if (timeline_ == nullptr) return;
  // Built from the catalog before this advance, so that every site the
  // epochs grant an AAAA record joins the walk below, even before the
  // first round.
  ensure_work_index();
  for (const WorldChangeSummary& summary : timeline_->advance_to(round)) {
    for (Monitor& monitor : monitors_) monitor.on_world_change(summary);
    // A granted site must join the round walk, or the count of settled
    // sites would fast-path it forever.
    std::vector<SiteScanIndex::Candidate>& rows = scan_.candidates;
    const auto old_end = static_cast<std::ptrdiff_t>(rows.size());
    for (const std::uint32_t id : summary.sites_gained_aaaa) {
      const web::SiteCatalog& catalog = world_.catalog;
      const SiteScanIndex::Candidate row =
          scan_.candidate(catalog, id, catalog.first_seen_round(catalog.site(id)));
      if (row.first_seen >= kMaxCampaignRounds) continue;
      const auto it = std::lower_bound(
          rows.begin(), rows.begin() + old_end, id,
          [](const SiteScanIndex::Candidate& c, std::uint32_t v) { return c.id < v; });
      if (it != rows.begin() + old_end && it->id == id) {
        *it = row;  // Already walked for its DNS fate; now dual-stack too.
      } else {
        rows.push_back(row);
      }
    }
    // sites_gained_aaaa is sorted, so the appended rows are too.
    std::inplace_merge(rows.begin(), rows.begin() + old_end, rows.end(),
                       [](const SiteScanIndex::Candidate& a,
                          const SiteScanIndex::Candidate& b) { return a.id < b.id; });
  }
}

void Campaign::run_sites(std::size_t vp_index, std::uint32_t round,
                         const std::vector<std::uint32_t>& sites, VpStore& store,
                         std::uint64_t salt, RoundCounters delta) {
  V6MON_REQUIRE(vp_index < monitors_.size(), "vantage point index out of range");
  Monitor& monitor = monitors_[vp_index];
  const util::Rng root(config_.seed);
  const double timeout_prob = config_.monitor.dns.timeout_prob;
  // A regular round with the fast path on monitors only sites whose fate,
  // read by the walk from scan_.flags, loses no query: it seeds no DNS
  // stream. Every other site decision draws its loss per site.
  const bool fate_known = salt == 0 && config_.fast_path;

  // Resolution is coordinator-only (we hold this VP's epoch mutex): every
  // row the workers read below exists before the fan-out, so they only
  // read.
  {
    obs::TraceSpan span(obs::Stage::kSiteResolve);
    monitor.resolve_sites(sites, round);
  }

  // Every site decision issues both queries; timeouts add per block.
  DnsTally& dns_tally = dns_tallies_[vp_index];
  const std::uint64_t queries = kQueriesPerSite * sites.size();
  dns_tally.queries.fetch_add(queries, std::memory_order_relaxed);
  obs::metrics().add(campaign_metric_ids().dns_queries, queries);

  // Site i's observation lands in slot i: workers share no other state.
  std::vector<Observation> rows(sites.size());
  // Returns the queries the site lost.
  const auto monitor_one = [&](std::size_t i, util::Rng&& rng) {
    const std::uint32_t site_id = sites[i];
    const web::Site& site = world_.catalog.site(site_id);
    // The DNS loss stream is keyed only per (site, salt), so in regular
    // rounds a site draws the same timeouts at every round and vantage
    // point (EXPERIMENTS.md, deviation 6).
    const std::uint8_t fate = scan_.flags[site_id];
    const QueryLoss loss =
        fate_known ? QueryLoss{(fate & SiteScanIndex::kFirstQueryLost) != 0,
                               (fate & SiteScanIndex::kSecondQueryLost) != 0}
                   : draw_query_loss(root, timeout_prob, salt, site_id);
    rows[i] = monitor.monitor_site(site, round, loss, std::move(rng));
    return loss.timeouts();
  };
  // Every RNG stream is keyed by data — never by block bounds or worker
  // identity — so scheduling granularity is a pure performance knob and
  // threads=1 reproduces threads=N bit-for-bit. The monitor streams are
  // keyed per (vp, round, site, salt) and seeded a block at a time.
  const auto monitor_block = [&](std::size_t block) {
    const std::size_t first = block * kLanes;
    const std::span<const std::uint32_t> ids =
        std::span(sites).subspan(first).first(std::min(kLanes, sites.size() - first));
    MonitorStreams streams(root, vp_index, round, salt, ids);
    std::uint64_t timeouts = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      timeouts += monitor_one(first + k, std::move(streams[k]));
    }
    if (timeouts != 0) {
      dns_tally.timeouts.fetch_add(timeouts, std::memory_order_relaxed);
      obs::metrics().add(campaign_metric_ids().dns_timeouts, timeouts);
    }
  };
  const std::size_t blocks = (sites.size() + kLanes - 1) / kLanes;
  if (sites.size() < kFanOutSitesPerWorker * config_.threads) {
    // Too few sites to pay for waking helpers. Same fn(i) sequence as
    // parallel_index's serial path, so no observable can tell.
    for (std::size_t b = 0; b < blocks; ++b) monitor_block(b);
  } else {
    parallel_index(pool_, blocks, monitor_block);
  }
  // Round boundary, on this thread alone: fold the statuses into the
  // round's counters, keep the rows the store records (in work-list
  // order, so the batch does not depend on the schedule), and ingest.
  auto& metrics = obs::metrics();
  const CampaignMetricIds& ids = campaign_metric_ids();
  {
    obs::TraceSpan span(obs::Stage::kIngestFlush);
    std::array<std::uint64_t, kNumStatuses> by_status{};
    std::size_t kept = 0;
    for (const Observation& o : rows) {
      ++by_status[static_cast<std::size_t>(o.status)];
      if (records_row(o.status)) rows[kept++] = o;
    }
    rows.resize(kept);
    for (std::size_t s = 0; s < kNumStatuses; ++s) {
      if (by_status[s] == 0) continue;
      apply_status(delta, static_cast<MonitorStatus>(s), by_status[s]);
      metrics.add(ids.status[s], by_status[s]);
    }
    if (store.spool != nullptr) {
      store.spool->ingest(round, rows, delta);
    } else {
      store.db->merge_rows(rows);
      store.db->merge_counters(round, std::span(&delta, 1));
    }
  }
  metrics.add(ids.sites_monitored, sites.size());
  metrics.add(ids.ingest_rows, rows.size());
  metrics.add(ids.ingest_flushes);
  // The ingest is also the metrics merge boundary: worker-thread shards
  // fold into the registry totals while no worker records.
  metrics.merge_shards();
}

void Campaign::ensure_work_index() {
  std::call_once(scan_.build_once, [this] {
    const double p = config_.monitor.dns.timeout_prob;
    // draw_query_loss never draws at p == 0, so every fate stays clear and
    // the pool need not wake (DESIGN.md §10 on why that matters).
    if (config_.fast_path && p > 0.0) {
      const std::size_t n = scan_.flags.size();
      const util::Rng root(config_.seed);
      constexpr std::size_t kBlock = 1024;
      parallel_index(pool_, (n + kBlock - 1) / kBlock, [&](std::size_t block) {
        const std::size_t end = std::min(n, (block + 1) * kBlock);
        for (std::size_t id = block * kBlock; id < end; ++id) {
          const QueryLoss loss =
              draw_query_loss(root, p, 0, static_cast<std::uint32_t>(id));
          if (loss.first) scan_.flags[id] |= SiteScanIndex::kFirstQueryLost;
          if (loss.second) scan_.flags[id] |= SiteScanIndex::kSecondQueryLost;
        }
      });
    }
    // Every other listed site is kV4Only at every round, whatever the
    // vantage point: the round counts it without visiting it.
    const web::SiteCatalog& catalog = world_.catalog;
    for (const web::ListingRun& run : catalog.listing_runs()) {
      if (run.first_seen_round >= kMaxCampaignRounds) continue;
      for (std::uint32_t id = run.begin; id < run.end; ++id) {
        if (!config_.fast_path || catalog.sites()[id].v6_record != web::kNoV6Record ||
            (scan_.flags[id] & SiteScanIndex::kFate) != 0) {
          scan_.candidates.push_back(scan_.candidate(catalog, id, run.first_seen_round));
        }
      }
    }
    for (std::size_t vp = 0; vp < stores_.size(); ++vp) {
      expect_rows(stores_[vp], regular_rows(vp));
    }
  });
}

void Campaign::run_round(std::size_t vp_index, std::uint32_t round) {
  V6MON_REQUIRE(vp_index < world_.vantage_points.size(),
                "vantage point index out of range");
  V6MON_REQUIRE(!finalized_, "run_round after finalize()");
  // The per-site monitor stream key packs vp * kMaxCampaignRounds + round.
  V6MON_REQUIRE(round < kMaxCampaignRounds, "round beyond the campaign limit");
  if (timeline_ != nullptr) {
    // Measuring a round with an unapplied epoch at or before it would
    // observe the wrong world version — the caller must advance first.
    const std::optional<std::uint32_t> next = timeline_->next_epoch_round();
    V6MON_REQUIRE(!next.has_value() || *next > round,
                  "pending world epoch at or before this round: "
                  "call advance_world(round) first");
  }
  const VantagePoint& vp = world_.vantage_points[vp_index];
  if (round < vp.start_round) return;
  ensure_work_index();
  VpStore& store = stores_[vp_index];
  // One round at a time per store: concurrent run_round calls on the same
  // vantage point serialize here.
  util::LockGuard epoch(store.epoch_mu);
  // The listed and settled counts; run_sites adds the measured statuses.
  RoundCounters delta;

  // Collect this round's work list. The fast path settles every site
  // whose DNS fate decides its outcome: no query lost on a site without
  // an AAAA record means exactly kV4Only, both lost exactly kDnsFailed,
  // and with one query lost the monitor's query-order coin (drawn here
  // from the site's own monitor stream) says whether the A or the AAAA
  // was lost. Only dual-stack sites with a clean fate run the pipeline.
  std::vector<std::uint32_t> work;
  {
    obs::TraceSpan span(obs::Stage::kWorkList);
    const bool supplement = vp.uses_dns_cache_supplement;
    const util::Rng root(config_.seed);
    std::uint64_t listed_candidates = 0;
    std::uint64_t settled_v4 = 0;
    std::uint64_t settled_v6 = 0;
    std::uint64_t settled_failed = 0;
    std::uint64_t both_lost = 0;
    std::uint64_t coin_sites = 0;
    // One-loss sites wait here until a block of streams can be primed
    // together. The settled counts are sums, so settling them in blocks
    // changes no total.
    std::array<std::uint32_t, kLanes> coin_ids{};
    std::array<bool, kLanes> coin_first_lost{};
    std::array<bool, kLanes> coin_dual{};
    std::size_t queued = 0;
    const auto settle_coins = [&] {
      MonitorStreams streams(root, vp_index, round, 0,
                             std::span(coin_ids.data(), queued));
      for (std::size_t k = 0; k < queued; ++k) {
        const bool lost_a = coin_first_lost[k] == Monitor::a_query_first(streams[k]);
        if (!lost_a) {
          ++settled_v4;  // The A answer arrives; the AAAA is lost.
        } else if (coin_dual[k]) {
          ++settled_v6;
        } else {
          ++settled_failed;  // A lost, AAAA NODATA.
        }
      }
      queued = 0;
    };
    // Same predicates as SiteCatalog::in_list_at / dual_stack_at, over the
    // candidates only, in ascending id order.
    for (const SiteScanIndex::Candidate& c : scan_.candidates) {
      if ((c.flags & SiteScanIndex::kViaDnsCache) != 0 && !supplement) continue;
      if (round < c.first_seen) continue;
      ++listed_candidates;
      const bool dual =
          c.v6_from != web::kNever && round >= c.v6_from && round < c.v6_until;
      const std::uint8_t fate = c.flags & SiteScanIndex::kFate;
      if (!config_.fast_path || (dual && fate == 0)) {
        work.push_back(c.id);
      } else if (fate == 0) {
        ++settled_v4;
      } else if (fate == SiteScanIndex::kFate) {
        ++both_lost;
        ++settled_failed;
      } else {
        ++coin_sites;
        coin_ids[queued] = c.id;
        coin_first_lost[queued] = fate == SiteScanIndex::kFirstQueryLost;
        coin_dual[queued] = dual;
        if (++queued == kLanes) settle_coins();
      }
    }
    if (queued != 0) settle_coins();
    const std::uint64_t listed = scan_.listed_at(round, supplement);
    // Fast-pathed + queued sites together must account for every listed
    // site — losing work here silently skews every downstream table.
    V6MON_ENSURE(listed_candidates <= listed,
                 "candidates cannot exceed the listed population");
    V6MON_ENSURE(work.size() <= listed,
                 "work list cannot exceed the listed population");
    // Every listed site the walk skipped is never dual-stack and loses
    // no DNS query: kV4Only.
    settled_v4 += listed - listed_candidates;
    if (const std::uint64_t settled = settled_v4 + settled_v6 + settled_failed;
        settled != 0) {
      // Settled sites count exactly as monitor_site would have: round and
      // status totals, plus the two queries each would have issued and
      // the ones it would have lost, so outputs, counters and dns_stats
      // are invariant to the fast_path knob. Batched: the fast path covers
      // the vast majority of the catalog, and per-site bookkeeping would
      // cost more than the fast path itself — counters are additive, so
      // one add per bucket is byte-identical to that many adds.
      apply_status(delta, MonitorStatus::kV4Only, settled_v4);
      apply_status(delta, MonitorStatus::kV6Only, settled_v6);
      apply_status(delta, MonitorStatus::kDnsFailed, settled_failed);
      const std::uint64_t queries = kQueriesPerSite * settled;
      const std::uint64_t timeouts = kQueriesPerSite * both_lost + coin_sites;
      DnsTally& tally = dns_tallies_[vp_index];
      tally.queries.fetch_add(queries, std::memory_order_relaxed);
      tally.timeouts.fetch_add(timeouts, std::memory_order_relaxed);
      auto& metrics = obs::metrics();
      const auto& ids = campaign_metric_ids();
      metrics.add(ids.fast_path_sites, settled);
      metrics.add(ids.fast_path_coin_sites, coin_sites);
      metrics.add(ids.status_id(MonitorStatus::kV4Only), settled_v4);
      metrics.add(ids.status_id(MonitorStatus::kV6Only), settled_v6);
      metrics.add(ids.status_id(MonitorStatus::kDnsFailed), settled_failed);
      metrics.add(ids.dns_queries, queries);
      metrics.add(ids.dns_timeouts, timeouts);
    }
    add_count(delta.listed, listed);

    // Randomize monitoring order (the paper randomizes per round to avoid
    // time-of-day bias). Chained derivation — one child per key component
    // — so no (vp, round) pair can alias another however large either
    // grows. (The packed `(vp << 20) | round` key this replaces collided
    // at the spool format's round cap: vp=0, round=2^20 shuffled
    // identically to vp=1, round=0.) The shuffle only permutes the work
    // list; every observable is keyed by (site, round), so outputs are
    // byte-identical under the rekey — tests/determinism_test.cpp pins the
    // schedule/threads/sink matrix against the serial in-memory reference and
    // tests/rng_test.cpp pins the collision-freedom itself.
    util::Rng order = root.child("order", vp_index).child("round", round);
    order.shuffle(work);
  }

  run_sites(vp_index, round, work, store, /*salt=*/0, delta);
}

void Campaign::run() {
  // Epoch-segment schedule (DESIGN.md §15). The pending epoch rounds cut
  // [0, num_rounds] into segments; within one, every vantage point runs
  // its rounds as an independent chain on parallel_index, and the
  // segment's end is a full barrier where advance_world applies the
  // epoch. So all VPs observe round r under the same world version, and
  // run_round's pending-epoch REQUIRE holds on every schedule.
  V6MON_REQUIRE(!finalized_, "run after finalize()");
  const std::size_t num_vps = world_.vantage_points.size();
  if (num_vps == 0) return;
  std::vector<std::uint32_t> ends;
  if (timeline_ != nullptr) {
    for (const std::uint32_t r : timeline_->pending_epoch_rounds()) {
      if (r <= world_.num_rounds) ends.push_back(r);
    }
  }
  ends.push_back(world_.num_rounds + 1);
  // Before any chain runs: the fate fill fans out over pool_ itself.
  ensure_work_index();
  std::uint32_t lo = 0;
  for (const std::uint32_t hi : ends) {
    parallel_index(pool_, num_vps, [this, lo, hi](std::size_t vp) {
      for (std::uint32_t round = lo; round < hi; ++round) run_round(vp, round);
    });
    if (hi <= world_.num_rounds) advance_world(hi);
    lo = hi;
  }
}

void Campaign::run_w6d_for_vp(std::size_t vp_index,
                              const std::vector<std::uint32_t>& participants) {
  VpStore& store = w6d_stores_[vp_index];
  util::LockGuard epoch(store.epoch_mu);
  // The monitor (and its resolved-site table) is shared with regular
  // rounds, and run_sites below may resolve new rows: take the regular
  // store's epoch mutex too, so all table mutation for this VP
  // serializes on one lock order (w6d store first, regular store second).
  util::LockGuard regular_epoch(stores_[vp_index].epoch_mu);
  // Each mini-round records at most one row per participant.
  expect_rows(store, participants.size() * config_.w6d_mini_rounds);
  for (std::size_t mini = 0; mini < config_.w6d_mini_rounds; ++mini) {
    // All mini-rounds happen at the W6D calendar round (same DNS state)
    // but with independent randomness. Each run_sites call is one
    // ingest, so a site's mini-round observations land in mini order.
    run_sites(vp_index, world_.w6d_round, participants, store,
              /*salt=*/0x60d00000ULL + mini, RoundCounters{});
  }
}

void Campaign::run_w6d() {
  if (world_.w6d_round == web::kNever) return;
  V6MON_REQUIRE(!finalized_, "run_w6d after finalize()");
  // Evolving campaigns: the special event measures against whatever
  // world version the regular rounds left behind (run() has advanced
  // through every epoch <= num_rounds by the w6d round's pass). That is
  // the intended semantics — W6D happens on the evolved topology.
  // Every participant has an AAAA window, so its flag is in its IPv6
  // presence record.
  std::vector<std::uint32_t> participants;
  const std::vector<web::V6Presence>& records = world_.catalog.v6_records();
  for (const web::Site& s : world_.catalog.sites()) {
    if (s.v6_record != web::kNoV6Record && records[s.v6_record].w6d_participant) {
      participants.push_back(s.id);
    }
  }
  // Without participants the event records nothing, not even a round.
  if (participants.empty()) return;
  // One chain per participating vantage point: a VP's whole mini-round
  // sequence runs on one thread, so mini ordering and the w6d-store ->
  // regular-store lock order hold while different VPs' events run
  // concurrently.
  std::vector<std::size_t> vps;
  for (std::size_t vp = 0; vp < world_.vantage_points.size(); ++vp) {
    if (world_.vantage_points[vp].start_round <= world_.w6d_round) vps.push_back(vp);
  }
  parallel_index(pool_, vps.size(),
                 [&](std::size_t i) { run_w6d_for_vp(vps[i], participants); });
}

void Campaign::finalize() {
  if (finalized_) return;
  finalized_ = true;
  std::vector<VpStore*> stores;
  for (std::deque<VpStore>* group : {&stores_, &w6d_stores_}) {
    for (VpStore& store : *group) stores.push_back(&store);
  }
  // A VP's two stores read one registry, and a spool replay interns into
  // it (content that is already there), so every store ends ingest before
  // any store freezes the registry: two passes on the campaign pool. A
  // failing store (a spool that cannot be written or replayed) does not
  // stop the others, and the error of the lowest store index surfaces,
  // whatever the schedule.
  std::vector<std::exception_ptr> failed(stores.size());
  parallel_index(pool_, stores.size(), [&stores, &failed](std::size_t i) {
    VpStore& store = *stores[i];
    util::LockGuard epoch(store.epoch_mu);
    if (store.spool == nullptr) return;
    try {
      store.spool->finish();
      // Out-of-core campaign: pull the spooled rows back in for the
      // analysis pass, into rows allocated once. The replayed store is
      // indistinguishable from an in-memory run (tests assert byte
      // equality).
      store.db->reserve(store.expected_rows);
      replay_spool_file(store.spool->path(), *store.db);
    } catch (...) {
      failed[i] = std::current_exception();
    }
  });
  parallel_index(pool_, stores.size(), [&stores, &failed](std::size_t i) {
    if (!failed[i]) stores[i]->db->finalize();
  });
  for (const std::exception_ptr& e : failed) {
    if (e) std::rethrow_exception(e);
  }
  // The memory ledger's owners, by size: functions of the study alone,
  // so they read the same at any thread count.
  const CampaignMetricIds& ids = campaign_metric_ids();
  std::size_t bytes = 0;
  for (const VpStore* store : stores) bytes += store->db->bytes();
  obs::metrics().add(ids.results_bytes, bytes);
  obs::metrics().add(ids.catalog_bytes, world_.catalog.bytes());
  std::size_t rib_bytes = 0;
  for (const VantagePoint& vp : world_.vantage_points) rib_bytes += vp.rib.bytes();
  obs::metrics().add(ids.rib_bytes, rib_bytes);
  // Each VP's one registry is counted here, with its resolved-site table.
  std::size_t slot_bytes = 0;
  for (const Monitor& m : monitors_) {
    slot_bytes += m.resolved_sites().bytes() + m.routes().bytes();
  }
  obs::metrics().add(ids.resolved_slots_bytes, slot_bytes);
  // The round walk's index, shared by every vantage point.
  std::size_t work_list_bytes = scan_.flags.size() * sizeof(std::uint8_t) +
                                scan_.candidates.size() * sizeof(SiteScanIndex::Candidate);
  for (const std::vector<std::uint32_t>& counts : scan_.listed) {
    work_list_bytes += counts.size() * sizeof(std::uint32_t);
  }
  obs::metrics().add(ids.work_list_bytes, work_list_bytes);
}

}  // namespace v6mon::core
