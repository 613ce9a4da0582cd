#include "core/campaign.h"

#include <algorithm>
#include <array>
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

/// Campaign-layer counter handles. Status counters are indexed by the
/// MonitorStatus enum value so workers count without a name lookup; all
/// of them are deterministic in thread count and sink backend (each is
/// incremented exactly once per listed site per round).
struct CampaignMetricIds {
  obs::MetricId fast_path_sites = obs::metrics().counter("campaign.fast_path_sites");
  obs::MetricId fast_path_coin_sites =
      obs::metrics().counter("campaign.fast_path_coin_sites");
  obs::MetricId sites_monitored = obs::metrics().counter("campaign.sites_monitored");
  obs::MetricId ingest_rows = obs::metrics().counter("ingest.rows");
  obs::MetricId ingest_flushes = obs::metrics().counter("ingest.flushes");
  obs::MetricId dns_queries = obs::metrics().counter("dns.queries");
  obs::MetricId dns_timeouts = obs::metrics().counter("dns.timeouts");
  obs::MetricId status[7] = {
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

void Campaign::init_store(VpStore& store, std::size_t vp_index,
                          const char* tag) const {
  store.db = std::make_unique<ResultsDb>();
  switch (config_.sink) {
    case SinkBackend::kMutex:
      store.sink = std::make_unique<MutexSink>(*store.db);
      break;
    case SinkBackend::kSharded:
      store.sink = std::make_unique<ShardedSink>(*store.db);
      break;
    case SinkBackend::kSpool:
      store.spool_path =
          config_.spool_dir + "/vp" + std::to_string(vp_index) + tag + ".spool";
      store.sink = std::make_unique<SpoolSink>(store.spool_path);
      break;
  }
  V6MON_ENSURE(store.sink != nullptr, "unhandled sink backend");
}

Campaign::SiteScanIndex::SiteScanIndex(const web::SiteCatalog& catalog) {
  flags.reserve(catalog.size());
  for (std::vector<std::uint32_t>& counts : listed) {
    counts.assign(kMaxCampaignRounds, 0);
  }
  for (const web::Site& s : catalog.sites()) {
    // Flags are indexed by position; the catalog guarantees id ==
    // position, and everything here silently breaks if that drifts.
    V6MON_REQUIRE(s.id == flags.size(), "site id != catalog position");
    flags.push_back(s.from_dns_cache ? kViaDnsCache : 0);
    if (s.first_seen_round < kMaxCampaignRounds) {
      ++listed[s.from_dns_cache ? 1 : 0][s.first_seen_round];
    }
  }
  // Histogram of first_seen_round -> sites listed by round r.
  for (std::vector<std::uint32_t>& counts : listed) {
    for (std::size_t r = 1; r < counts.size(); ++r) counts[r] += counts[r - 1];
  }
}

std::uint64_t Campaign::SiteScanIndex::listed_at(std::uint32_t round,
                                                 bool supplement) const {
  return std::uint64_t{listed[0][round]} + (supplement ? listed[1][round] : 0);
}

Campaign::SiteScanIndex::Candidate Campaign::SiteScanIndex::candidate(
    const web::Site& site) const {
  return {site.id, site.first_seen_round, site.v6_from_round, site.v6_until_round,
          flags[site.id]};
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
    init_store(stores_.emplace_back(), vp, "");
    init_store(w6d_stores_.emplace_back(), vp, "_w6d");
    dns_tallies_.emplace_back();
    monitors_.emplace_back(world_, world_.vantage_points[vp], config_.monitor);
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
      const SiteScanIndex::Candidate row = scan_.candidate(world_.catalog.site(id));
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
                         const std::vector<std::uint32_t>& sites,
                         ObservationSink& sink, std::uint64_t salt) {
  V6MON_REQUIRE(vp_index < monitors_.size(), "vantage point index out of range");
  if (sites.empty()) return;
  Monitor& monitor = monitors_[vp_index];
  const util::Rng root(config_.seed);
  const double timeout_prob = config_.monitor.dns.timeout_prob;
  // A regular round with the fast path on monitors only sites whose fate,
  // read by the walk from scan_.flags, loses no query: it seeds no DNS
  // stream. Every other site decision draws its loss per site.
  const bool fate_known = salt == 0 && config_.fast_path;

  // Resolved-site table slot assignment is coordinator-only (we hold this
  // VP's ingest-epoch mutex): table growth must not race the workers'
  // lazy per-slot fills inside monitor_site below.
  {
    obs::TraceSpan span(obs::Stage::kSiteResolve);
    monitor.assign_resolve_slots(sites, round);
  }

  // Every site decision issues both queries; timeouts add per block.
  DnsTally& dns_tally = dns_tallies_[vp_index];
  const std::uint64_t queries = kQueriesPerSite * sites.size();
  dns_tally.queries.fetch_add(queries, std::memory_order_relaxed);
  obs::metrics().add(campaign_metric_ids().dns_queries, queries);

  // Returns the queries the site lost.
  const auto monitor_one = [&](std::uint32_t site_id, util::Rng&& rng) {
    // The worker's private lane: recording and counting touch no shared
    // state; path ids are canonicalized at the round-boundary flush.
    ObservationSink::Lane& lane = sink.lane();
    const web::Site& site = world_.catalog.site(site_id);
    // The DNS loss stream is keyed only per (site, salt), so in regular
    // rounds a site draws the same timeouts at every round and vantage
    // point (EXPERIMENTS.md, deviation 6).
    const std::uint8_t fate = scan_.flags[site_id];
    const QueryLoss loss =
        fate_known ? QueryLoss{(fate & SiteScanIndex::kFirstQueryLost) != 0,
                               (fate & SiteScanIndex::kSecondQueryLost) != 0}
                   : draw_query_loss(root, timeout_prob, salt, site_id);
    const Observation obs =
        monitor.monitor_site(site, round, loss, std::move(rng), lane.paths());
    lane.count(round, obs.status);
    auto& metrics = obs::metrics();
    const auto& ids = campaign_metric_ids();
    metrics.add(ids.sites_monitored);
    metrics.add(ids.status_id(obs.status));
    if (obs.status == MonitorStatus::kMeasured ||
        obs.status == MonitorStatus::kDifferentContent ||
        obs.status == MonitorStatus::kV4DownloadFailed ||
        obs.status == MonitorStatus::kV6DownloadFailed) {
      lane.record(obs);
      metrics.add(ids.ingest_rows);
    }
    return loss.timeouts();
  };
  // Every RNG stream is keyed by data — never by block bounds or worker
  // identity — so scheduling granularity is a pure performance knob and
  // threads=1 reproduces threads=N bit-for-bit. The monitor streams are
  // keyed per (vp, round, site, salt) and seeded a block at a time.
  const auto monitor_block = [&](std::size_t block) {
    const std::span<const std::uint32_t> ids =
        std::span(sites).subspan(block * kLanes).first(
            std::min(kLanes, sites.size() - block * kLanes));
    MonitorStreams streams(root, vp_index, round, salt, ids);
    std::uint64_t timeouts = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      timeouts += monitor_one(ids[k], std::move(streams[k]));
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
  // Round boundary: merge every worker shard into the backing store (or
  // stream it to the spool) in one deterministic pass.
  {
    obs::TraceSpan span(obs::Stage::kIngestFlush);
    sink.flush();
  }
  auto& metrics = obs::metrics();
  metrics.add(campaign_metric_ids().ingest_flushes);
  // The flush is also the metrics merge boundary: worker-thread shards
  // fold into the registry totals while no lane traffic is in flight.
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
    for (const web::Site& s : world_.catalog.sites()) {
      const SiteScanIndex::Candidate row = scan_.candidate(s);
      if (row.first_seen >= kMaxCampaignRounds) continue;
      if (!config_.fast_path || row.v6_from != web::kNever ||
          (row.flags & SiteScanIndex::kFate) != 0) {
        scan_.candidates.push_back(row);
      }
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
  // One ingest epoch at a time per store: concurrent run_round calls on
  // the same vantage point serialize here, upholding the sink's
  // flush-without-lane-traffic contract.
  util::LockGuard epoch(store.epoch_mu);
  ObservationSink& sink = *store.sink;
  ObservationSink::Lane& lane = sink.lane();  // coordinator's own lane

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
    // Same predicates as Site::in_list_at / Site::dual_stack_at, over the
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
      // Settled sites count exactly as monitor_site would have: lane and
      // status totals, plus the two queries each would have issued and
      // the ones it would have lost, so outputs, counters and dns_stats
      // are invariant to the fast_path knob. Batched: the fast path covers
      // the vast majority of the catalog, and per-site bookkeeping would
      // cost more than the fast path itself — counters are additive, so
      // one add per bucket is byte-identical to that many adds.
      lane.count_n(round, MonitorStatus::kV4Only, settled_v4);
      lane.count_n(round, MonitorStatus::kV6Only, settled_v6);
      lane.count_n(round, MonitorStatus::kDnsFailed, settled_failed);
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
    sink.count_listed(round, listed);

    // Randomize monitoring order (the paper randomizes per round to avoid
    // time-of-day bias). Chained derivation — one child per key component
    // — so no (vp, round) pair can alias another however large either
    // grows. (The packed `(vp << 20) | round` key this replaces collided
    // at the spool format's round cap: vp=0, round=2^20 shuffled
    // identically to vp=1, round=0.) The shuffle only permutes the work
    // list; every observable is keyed by (site, round), so outputs are
    // byte-identical under the rekey — tests/determinism_test.cpp pins the
    // schedule/threads/sink matrix against the serial mutex reference and
    // tests/rng_test.cpp pins the collision-freedom itself.
    util::Rng order = root.child("order", vp_index).child("round", round);
    order.shuffle(work);
  }

  run_sites(vp_index, round, work, sink, /*salt=*/0);
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
  // rounds, and run_sites below may grow the table: take the regular
  // store's epoch mutex too, so all table mutation for this VP
  // serializes on one lock order (w6d store first, regular store second).
  util::LockGuard regular_epoch(stores_[vp_index].epoch_mu);
  for (std::size_t mini = 0; mini < config_.w6d_mini_rounds; ++mini) {
    // All mini-rounds happen at the W6D calendar round (same DNS state)
    // but with independent randomness. Each run_sites call is one
    // ingest epoch, flushed at its end, so a site's mini-round
    // observations land in mini order.
    run_sites(vp_index, world_.w6d_round, participants, *store.sink,
              /*salt=*/0x60d00000ULL + mini);
  }
}

void Campaign::run_w6d() {
  if (world_.w6d_round == web::kNever) return;
  V6MON_REQUIRE(!finalized_, "run_w6d after finalize()");
  // Evolving campaigns: the special event measures against whatever
  // world version the regular rounds left behind (run() has advanced
  // through every epoch <= num_rounds by the w6d round's pass). That is
  // the intended semantics — W6D happens on the evolved topology.
  std::vector<std::uint32_t> participants;
  for (const web::Site& s : world_.catalog.sites()) {
    if (s.w6d_participant) participants.push_back(s.id);
  }
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
  // Stores share nothing, so they finish, replay and sort in parallel.
  // A failing store (a spool that cannot be replayed) does not stop the
  // others; parallel_index rethrows the lowest store index's error, so
  // which error surfaces does not depend on the schedule.
  std::vector<VpStore*> stores;
  for (std::deque<VpStore>* group : {&stores_, &w6d_stores_}) {
    for (VpStore& store : *group) stores.push_back(&store);
  }
  parallel_index(pool_, stores.size(), [&stores](std::size_t i) {
    VpStore& store = *stores[i];
    util::LockGuard epoch(store.epoch_mu);
    store.sink->finish();
    if (!store.spool_path.empty()) {
      // Out-of-core campaign: pull the spooled rows back in for the
      // analysis pass. The replayed store is indistinguishable from an
      // in-memory run (tests assert byte equality).
      replay_spool_file(store.spool_path, *store.db);
    }
    store.db->finalize();
  });
}

}  // namespace v6mon::core
