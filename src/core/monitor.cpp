#include "core/monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bgp/anycast.h"
#include "obs/metrics.h"
#include "transport/path.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/stats.h"

namespace v6mon::core {

void MonitorConfig::validate() const {
  if (!(identity_threshold >= 0.0) || !std::isfinite(identity_threshold)) {
    throw ConfigError("identity_threshold must be finite and non-negative");
  }
  if (!(ci_rel > 0.0) || !std::isfinite(ci_rel)) {
    throw ConfigError("ci_rel must be finite and positive");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw ConfigError("confidence level must be in (0, 1)");
  }
  if (min_downloads < 2) {
    throw ConfigError("min_downloads must be >= 2 (a CI needs two samples)");
  }
  if (max_downloads < min_downloads) {
    throw ConfigError("max_downloads must be >= min_downloads");
  }
  // Observation::v4_samples / v6_samples are uint16_t; a bigger budget
  // would wrap the recorded sample counts silently (ISSUE 4 satellite).
  if (max_downloads > std::numeric_limits<std::uint16_t>::max()) {
    throw ConfigError("max_downloads must fit uint16_t sample counters (<= 65535)");
  }
  if (fetch_retries == 0) throw ConfigError("fetch_retries must be >= 1");
  // Probability and physical-quantity domains (ISSUE 9 satellite): these
  // used to slip through and surface as contract violations (or silent
  // clamping) deep inside the download model.
  if (!(dns.timeout_prob >= 0.0 && dns.timeout_prob <= 1.0)) {
    throw ConfigError("dns.timeout_prob must be in [0, 1]");
  }
  if (!(download.failure_prob >= 0.0 && download.failure_prob <= 1.0)) {
    throw ConfigError("download.failure_prob must be in [0, 1]");
  }
  if (!(download.noise_sigma >= 0.0) || !std::isfinite(download.noise_sigma)) {
    throw ConfigError("download.noise_sigma must be finite and non-negative");
  }
  if (!(download.setup_rtts >= 0.0) || !std::isfinite(download.setup_rtts)) {
    throw ConfigError("download.setup_rtts must be finite and non-negative");
  }
  if (!(download.window_kB > 0.0) || !std::isfinite(download.window_kB)) {
    throw ConfigError("download.window_kB must be finite and positive");
  }
  if (!(download.fixed_overhead_s >= 0.0) ||
      !std::isfinite(download.fixed_overhead_s)) {
    throw ConfigError("download.fixed_overhead_s must be finite and non-negative");
  }
  if (!(path_quality_sigma >= 0.0) || !std::isfinite(path_quality_sigma)) {
    throw ConfigError("path_quality_sigma must be finite and non-negative");
  }
  conn.validate();
}

namespace {

/// Counter handles resolved once; registration is idempotent by name.
struct MonitorMetricIds {
  obs::MetricId ci_exhausted = obs::metrics().counter("monitor.ci_exhausted");
  obs::MetricId rows_invalidated = obs::metrics().counter("monitor.rows_invalidated");
  obs::MetricId resolved_slots = obs::metrics().counter("monitor.resolved_slots");
};

const MonitorMetricIds& monitor_metric_ids() {
  static const MonitorMetricIds ids;
  return ids;
}

/// Conn-layer counters (pre-registered in kCounterNames) + the handshake
/// latency histogram. All deterministic across threads x sinks: every
/// add is a pure function of a (site, round) evaluation, and the
/// histogram observes *simulated* seconds, not wall time.
struct ConnMetricIds {
  obs::MetricId attempts = obs::metrics().counter("conn.attempts");
  obs::MetricId established = obs::metrics().counter("conn.established");
  obs::MetricId fallbacks = obs::metrics().counter("conn.fallbacks");
  obs::MetricId noroute = obs::metrics().counter("conn.noroute");
  obs::MetricId resets = obs::metrics().counter("conn.resets");
  obs::MetricId timeouts = obs::metrics().counter("conn.timeouts");
  obs::MetricId handshake_hist =
      obs::metrics().histogram("conn.handshake_seconds");
};

const ConnMetricIds& conn_metric_ids() {
  static const ConnMetricIds ids;
  return ids;
}

/// Fold one family's attempt chain into the conn.* metrics.
void record_conn_metrics(const transport::ConnOutcome& o) {
  auto& metrics = obs::metrics();
  const ConnMetricIds& ids = conn_metric_ids();
  metrics.add(ids.attempts, o.attempts);
  switch (o.error) {
    case transport::ConnError::kNone:
      metrics.add(ids.established);
      metrics.observe(ids.handshake_hist, o.handshake_s);
      break;
    case transport::ConnError::kTimeout: metrics.add(ids.timeouts); break;
    case transport::ConnError::kReset: metrics.add(ids.resets); break;
    case transport::ConnError::kNoRoute: metrics.add(ids.noroute); break;
  }
}

/// Per-worker batch scratch for measure_family: overwritten in full by
/// each simulate_batch call before being read, never escapes the call,
/// and carries no state between samples — results stay a pure function
/// of the per-(site, round) RNG stream.
// V6MON_LINT_ALLOW(D004): worker-private sampling scratch; fully
// rewritten before every read and never observable outside one
// measure_family call, so it cannot carry cross-site or cross-thread
// state into any output.
thread_local std::vector<transport::DownloadResult> t_batch_scratch;

/// RAII flush of locally accumulated download counters: monitor_site has
/// many early returns, and every one must still publish the tally.
struct TallyFlusher {
  transport::DownloadTally tally;
  TallyFlusher() = default;
  TallyFlusher(const TallyFlusher&) = delete;
  TallyFlusher& operator=(const TallyFlusher&) = delete;
  ~TallyFlusher() { transport::DownloadSimulator::flush_tally(tally); }
};

}  // namespace

QueryLoss draw_query_loss(const util::Rng& root, double timeout_prob,
                          std::uint64_t salt, std::uint32_t site_id) {
  QueryLoss loss;
  if (timeout_prob > 0.0) {
    util::Rng rng(root.child_seed("dns", salt ^ site_id));
    loss.first = rng.chance(timeout_prob);
    loss.second = rng.chance(timeout_prob);
  }
  return loss;
}

Monitor::Monitor(const World& world, const VantagePoint& vp, MonitorConfig config)
    : world_(world),
      vp_(vp),
      config_(config),
      sim_(config.download),
      conn_(config.conn),
      conn_needs_paths_(config.fallback != FallbackPolicy::kNone),
      fallback_(std::make_unique<FallbackAccumulator>()) {
  // Validate before building the gate table: an out-of-domain confidence
  // must surface as ConfigError, not as a contract violation inside
  // student_t_critical.
  config_.validate();
  gates_ = util::CiGateTable(config_.ci_rel, config_.confidence, config_.max_downloads);
  resolved_ = ResolvedSiteTable(world_.catalog.size());
}

Monitor::FamilyMeasurement Monitor::measure_family(
    const transport::PreparedDownload& prep, util::Rng& rng,
    transport::DownloadTally& tally) const {
  FamilyMeasurement m;
  util::RunningStats times;
  std::size_t attempts = 0;
  const std::size_t max_attempts = config_.max_downloads + config_.fetch_retries;
  std::vector<transport::DownloadResult>& scratch = t_batch_scratch;
  if (scratch.size() < config_.min_downloads) scratch.resize(config_.min_downloads);
  while (attempts < max_attempts) {
    // Below min_downloads no stopping check can fire, so those attempts
    // run as one batch; the batch size is chosen so the sample count can
    // only *reach* min_downloads on the batch's last attempt — the CI is
    // checked at exactly the points the per-sample loop checked it, and
    // the draw stream is n back-to-back simulate calls either way.
    const std::size_t want = times.count() < config_.min_downloads
                                 ? config_.min_downloads - times.count()
                                 : 1;
    const std::size_t batch = std::min(want, max_attempts - attempts);
    const std::size_t ok = sim_.simulate_batch(
        prep, batch, rng,
        std::span<transport::DownloadResult>(scratch.data(), batch), tally);
    attempts += batch;
    if (ok == 0) continue;
    for (std::size_t i = 0; i < batch; ++i) {
      if (scratch[i].ok) times.add(scratch[i].seconds);
    }
    if (times.count() >= config_.min_downloads) {
      const bool ci_ok = gates_.meets(times);
      if (ci_ok || times.count() >= config_.max_downloads) {
        // The paper's CI loop can give up at the budget without reaching
        // the 10%-of-mean target; count those so campaigns can see how
        // often the stopping rule is the budget rather than the CI.
        if (!ci_ok) obs::metrics().add(monitor_metric_ids().ci_exhausted);
        break;
      }
    }
  }
  if (times.count() < config_.min_downloads) return m;  // too many failures
  m.ok = true;
  m.mean_time_s = times.mean();
  m.speed_kBps = prep.page_kb / m.mean_time_s;
  m.samples = static_cast<std::uint16_t>(times.count());
  // Fig. 2 loop postconditions: the sample budget was respected and the
  // derived speed is a usable number.
  V6MON_ENSURE(m.samples <= config_.max_downloads,
               "CI loop exceeded the download budget");
  V6MON_ENSURE(m.mean_time_s > 0.0 && std::isfinite(m.speed_kBps),
               "measured download must yield a finite positive speed");
  return m;
}

transport::PathCharacteristics Monitor::characterize(
    const std::vector<topo::Asn>& as_path, ip::Family family) const {
  transport::PathCharacteristics pc =
      transport::characterize_path(world_.graph, vp_.asn, as_path, family);
  pc.quality = transport::path_quality(as_path, config_.path_quality_sigma);
  return pc;
}

bool Monitor::characterize_v6_path(ResolvedSiteRow& row) const {
  row.v6_path = characterize(row.v6_route->as_path, ip::Family::kIpv6);

  // 6to4 anycast: the RIB's 2002::/16 route only reaches the relay — the
  // AS path *looks* 1-2 hops long. Packets then ride the IPv4 underlay to
  // the island; add that hidden leg's cost (the Table 7 artifact).
  if (row.v6_path.valid && row.v6_addr.is_6to4()) {
    const auto island = world_.origins.origin_v4(row.v6_addr.embedded_6to4_v4());
    const topo::AsLink* tunnel = nullptr;
    if (island.has_value()) {
      for (const topo::Adjacency& adj : world_.graph.adjacencies(*island)) {
        const topo::AsLink& l = world_.graph.link(adj.link_id);
        if (bgp::is_live_tunnel(l)) {
          tunnel = &l;
          break;
        }
      }
    }
    if (tunnel == nullptr) {
      // No working relay leg: the route exists but its data plane
      // blackholes. Mark the path unusable so the conn layer (and any
      // other reader) cannot dial it; under kNone the row's v6_path is
      // never read when the gate fails, so this is byte-invisible.
      row.v6_path.valid = false;
      return false;
    }
    row.v6_path.via_tunnel = true;
    row.v6_path.rtt_ms +=
        2.0 * (tunnel->metrics.latency_ms + tunnel->tunnel_extra_latency_ms);
    row.v6_path.bottleneck_kBps =
        std::min(row.v6_path.bottleneck_kBps,
                 tunnel->metrics.bandwidth_kBps * tunnel->tunnel_bandwidth_factor);
    row.v6_path.underlying_hops += tunnel->tunnel_underlying_hops;
  }
  return true;
}

void Monitor::resolve_addresses(const ip::Ipv4Address& v4_addr,
                                const ip::Ipv6Address& v6_addr,
                                ResolvedSiteRow& row) const {
  row.v4_addr = v4_addr;
  row.v6_addr = v6_addr;
  row.v4_route = vp_.rib.lookup_v4(v4_addr);
  row.v6_route = vp_.rib.lookup_v6(v6_addr);
  // Verdict precedence matches the original inline phase 2 exactly: null
  // v4 route, null v6 route, 6to4 without a relay leg, invalid v4 path,
  // invalid v6 path. Routes stay recorded even on failure — origins and
  // AS paths of the reachable side are still reported. Under a fallback
  // policy the surviving side's path is characterized even when the
  // other side fails the gate (the conn layer dials it).
  if (row.v4_route == nullptr) {
    row.gate = MonitorStatus::kV4DownloadFailed;
    if (conn_needs_paths_ && row.v6_route != nullptr) {
      (void)characterize_v6_path(row);
    }
    return;
  }
  if (row.v6_route == nullptr) {
    row.gate = MonitorStatus::kV6DownloadFailed;
    if (conn_needs_paths_) {
      row.v4_path = characterize(row.v4_route->as_path, ip::Family::kIpv4);
    }
    return;
  }

  row.v4_path = characterize(row.v4_route->as_path, ip::Family::kIpv4);
  if (!characterize_v6_path(row)) {
    row.gate = MonitorStatus::kV6DownloadFailed;  // no working relay leg
    return;
  }
  if (!row.v4_path.valid) {
    row.gate = MonitorStatus::kV4DownloadFailed;
    return;
  }
  if (!row.v6_path.valid) {
    row.gate = MonitorStatus::kV6DownloadFailed;
    return;
  }
  row.gate = MonitorStatus::kMeasured;
}

void Monitor::evaluate_fallback(const transport::PathCharacteristics* v4,
                                const transport::PathCharacteristics* v6,
                                util::Rng& conn_rng) {
  // Draw order is fixed per policy — v6 first — and the stream is this
  // site's dedicated "conn" child, so the evaluation is a pure function
  // of (site, round, seed) whatever the schedule. kSequential only dials
  // v4 after v6 fails, exactly as the 2011 browser would; kRace always
  // dials both (the race runs them concurrently).
  const transport::ConnOutcome o6 = conn_.connect(v6, conn_rng);
  transport::ConnOutcome o4;
  FallbackDecision d;
  if (config_.fallback == FallbackPolicy::kSequential) {
    if (!o6.ok) o4 = conn_.connect(v4, conn_rng);
    d = decide_sequential(o6, o4);
  } else {
    o4 = conn_.connect(v4, conn_rng);
    d = decide_race(o6, o4, config_.conn.race_headstart_s);
  }

  record_conn_metrics(o6);
  if (o4.attempts != 0) record_conn_metrics(o4);

  FallbackStats delta;
  delta.evaluated = 1;
  if (d.ok) {
    delta.user_success = 1;
    if (d.used_v6) {
      delta.used_v6 = 1;
    } else {
      delta.fell_back = 1;
      obs::metrics().add(conn_metric_ids().fallbacks);
    }
    // The fallback tax: what the user waited beyond a clean one-shot
    // IPv4 handshake (the v4-only client's baseline). Clamped at zero —
    // a fast v6 win is not a negative tax.
    const double baseline_s =
        (v4 != nullptr && v4->valid)
            ? transport::ConnectionModel::handshake_seconds(*v4)
            : 0.0;
    delta.user_latency_us = latency_us(d.user_latency_s);
    delta.added_latency_us = latency_us(d.user_latency_s - baseline_s);
  } else {
    delta.both_failed = 1;
  }
  if (!o6.ok) {
    switch (o6.error) {
      case transport::ConnError::kTimeout: delta.v6_timeout = 1; break;
      case transport::ConnError::kReset: delta.v6_reset = 1; break;
      case transport::ConnError::kNoRoute: delta.v6_noroute = 1; break;
      case transport::ConnError::kNone: break;
    }
  }

  util::LockGuard lock(fallback_->mu);
  fallback_->stats.merge(delta);
}

void Monitor::on_world_change(const WorldChangeSummary& summary) {
  current_world_epoch_ = summary.epoch;

  std::uint64_t invalidated = 0;
  for (std::uint32_t slot = 0; slot < resolved_.size(); ++slot) {
    if (!resolved_.filled(slot)) continue;
    // Stale-row pointer reads are safe here: the RIB trie retains value
    // storage across erase/replace, and this runs on the quiescent
    // coordinator before any post-epoch reader.
    const ResolvedSiteRow& row = resolved_.row(slot);
    const bgp::RibEntry* v6_route = row.v6_route;
    bool stale;
    if (v6_route == nullptr || row.v6_addr.is_6to4()) {
      // No cached route: one may exist now. 6to4: the anycast election
      // and the island's hidden tunnel leg both change without the
      // cached path crossing a touched AS.
      stale = summary.v6_data_plane_changed;
    } else {
      const std::vector<topo::Asn>& path = v6_route->as_path;
      stale = summary.dest_changed(v6_route->origin) ||
              std::any_of(path.begin(), path.end(),
                          [&](topo::Asn a) { return summary.as_touched(a); });
    }
    if (stale) {
      resolved_.invalidate(slot);
      ++invalidated;
    }
  }
  obs::metrics().add(monitor_metric_ids().rows_invalidated, invalidated);
}

void Monitor::assign_resolve_slots(std::span<const std::uint32_t> sites,
                                   std::uint32_t round) {
  const std::size_t before = resolved_.size();
  for (const std::uint32_t id : sites) {
    const web::Site& s = world_.catalog.site(id);
    const std::uint8_t epoch = s.hosting_epoch(round);
    if (resolved_.find(id, epoch) == ResolvedSiteTable::kNoSlot) {
      resolved_.assign(s, epoch);
    }
  }
  obs::metrics().add(monitor_metric_ids().resolved_slots, resolved_.size() - before);
}

Observation Monitor::monitor_site(const web::Site& site, std::uint32_t round,
                                  QueryLoss loss, util::Rng&& rng,
                                  PathRegistry& paths) {
  Observation obs;
  obs.site = site.id;
  obs.round = round;

  // --- Phase 1: randomized A / AAAA queries -----------------------------
  // Order of the two queries is randomized like the tool randomizes its
  // site order. It decides which query a one-loss fate loses.
  const bool a_first = a_query_first(rng);
  bool has_a = false;
  bool has_aaaa = false;
  {
    obs::TraceSpan span(obs::Stage::kDnsResolve);
    has_a = !(a_first ? loss.first : loss.second);
    has_aaaa = !(a_first ? loss.second : loss.first) && site.dual_stack_at(round);
  }
  if (!has_a && !has_aaaa) {
    obs.status = MonitorStatus::kDnsFailed;
    return obs;
  }
  if (has_a && !has_aaaa) {
    obs.status = MonitorStatus::kV4Only;
    return obs;
  }
  if (!has_a && has_aaaa) {
    obs.status = MonitorStatus::kV6Only;
    return obs;
  }

  // --- Phase 2: locate both presences through the RIB --------------------
  const web::Hosting answers = world_.catalog.hosting_at(site, round);

  // Served from the campaign-lifetime resolved-site table. The first
  // time a site reaches this phase its row is resolved and filled right
  // here — by the one worker monitoring the site this epoch, so fills
  // never race — and later rounds reuse it. Without a slot (a Monitor
  // driven outside a campaign) the row is resolved per call.
  const std::uint32_t slot = resolved_.find(site.id, site.hosting_epoch(round));
  ResolvedSiteRow local;
  const ResolvedSiteRow* row = &local;
  if (slot == ResolvedSiteTable::kNoSlot) {
    resolve_addresses(answers.v4_addr, answers.v6_addr, local);
  } else {
    if (!resolved_.filled(slot)) {
      resolve_addresses(answers.v4_addr, answers.v6_addr, local);
      resolved_.fill(slot, local, current_world_epoch_);
    }
    row = &resolved_.row(slot);
    V6MON_ASSERT(row->v4_addr == answers.v4_addr && row->v6_addr == answers.v6_addr,
                 "resolved-site row disagrees with the catalog's answers");
  }

  if (row->v4_route != nullptr) {
    obs.v4_origin = row->v4_route->origin;
    if (vp_.has_as_path) obs.v4_path = paths.intern(row->v4_route->as_path);
  }
  if (row->v6_route != nullptr) {
    obs.v6_origin = row->v6_route->origin;
    if (vp_.has_as_path) obs.v6_path = paths.intern(row->v6_route->as_path);
  }

  // Conn-establishment pass (ISSUE 9): every dual-stack site that got
  // this far is dialed per the fallback policy, gate verdict or not —
  // broken-v6 sites are exactly the ones whose user experience the
  // policies differ on. The conn stream is a child of the site's RNG, and
  // deriving a child consumes no parent draws, so phases 3-4 below see
  // the same draw sequence as a kNone run. A missing route is a null
  // path; a routed-but-invalid path is passed through as the blackhole
  // the conn model expects.
  if (config_.fallback != FallbackPolicy::kNone) {
    util::Rng conn_rng = rng.child("conn");
    evaluate_fallback(row->v4_route != nullptr ? &row->v4_path : nullptr,
                      row->v6_route != nullptr ? &row->v6_path : nullptr, conn_rng);
  }

  if (row->gate != MonitorStatus::kMeasured) {
    obs.status = row->gate;
    return obs;
  }

  // --- Phase 3: identity check -------------------------------------------
  // Sizes come back from the initial page fetch of each family. Pages and
  // rates come from the live catalog entry (which grant_aaaa rewrites).
  const double v4_page = site.page_kb;
  const double v6_page = site.page_kb * site.v6_page_ratio;
  const double v4_rate = site.server_rate_kBps * site.server_multiplier_at(round);
  const double v6_rate = v4_rate * site.v6_server_factor;

  // Hoist the draw-independent download math; attempts/failures accumulate
  // locally and flush once on every exit path.
  const transport::PreparedDownload v4_prep =
      sim_.prepare(row->v4_path, v4_page, v4_rate);
  const transport::PreparedDownload v6_prep =
      sim_.prepare(row->v6_path, v6_page, v6_rate);
  TallyFlusher tally;

  bool v4_fetched = false, v6_fetched = false;
  {
    obs::TraceSpan span(obs::Stage::kIdentityFetch);
    for (std::size_t i = 0; i < config_.fetch_retries && !v4_fetched; ++i) {
      v4_fetched = sim_.simulate_prepared(v4_prep, rng, tally.tally).ok;
    }
    if (v4_fetched) {
      for (std::size_t i = 0; i < config_.fetch_retries && !v6_fetched; ++i) {
        v6_fetched = sim_.simulate_prepared(v6_prep, rng, tally.tally).ok;
      }
    }
  }
  if (!v4_fetched) {
    obs.status = MonitorStatus::kV4DownloadFailed;
    return obs;
  }
  if (!v6_fetched) {
    obs.status = MonitorStatus::kV6DownloadFailed;
    return obs;
  }
  if (std::fabs(v6_page - v4_page) > config_.identity_threshold * v4_page) {
    obs.status = MonitorStatus::kDifferentContent;
    return obs;
  }

  // --- Phase 4: repeated downloads to the confidence target ---------------
  // IPv4 first, then IPv6, as in the paper (each after cache resets, which
  // the simulator models by independent draws).
  obs::TraceSpan span(obs::Stage::kRepeatDownloads);
  const FamilyMeasurement v4 = measure_family(v4_prep, rng, tally.tally);
  if (!v4.ok) {
    obs.status = MonitorStatus::kV4DownloadFailed;
    return obs;
  }
  const FamilyMeasurement v6 = measure_family(v6_prep, rng, tally.tally);
  if (!v6.ok) {
    obs.status = MonitorStatus::kV6DownloadFailed;
    return obs;
  }

  obs.status = MonitorStatus::kMeasured;
  obs.v4_speed_kBps = static_cast<float>(v4.speed_kBps);
  obs.v6_speed_kBps = static_cast<float>(v6.speed_kBps);
  obs.v4_samples = v4.samples;
  obs.v6_samples = v6.samples;
  return obs;
}

}  // namespace v6mon::core
