// Connection model + fallback layer (ISSUE 9). Three layers of pinning:
//
//  1. Unit oracles for transport::ConnectionModel — the backoff schedule
//     against its closed form, the terminal-error taxonomy (no-route is
//     instant, a blackholed route times out every attempt, reset draws
//     exhaust the retry budget), and the draw-free contract of the
//     default parameters.
//  2. Combiner oracles for core::decide_sequential / decide_race —
//     including the race tie-break (ties go to IPv6), which downstream
//     fallback rates silently depend on.
//  3. Campaign-level determinism: kSequential / kRace tallies, conn.*
//     counters and the handshake histogram are byte-identical across
//     threads {1,8} x sinks {sharded,spool}; observation CSVs are
//     byte-identical across all three policies (the conn layer draws
//     from its own child stream); kNone leaves every fallback stat at
//     zero. Plus the ISSUE 9 satellite bugfix pins: the all-attempts-fail
//     measure-loop edge and batched-vs-scalar DownloadTally parity.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/fallback.h"
#include "core/world_timeline.h"
#include "dns/resolver.h"
#include "obs/metrics.h"
#include "scenario/evolution.h"
#include "scenario/world_builder.h"
#include "transport/connection.h"
#include "transport/download.h"
#include "util/error.h"
#include "util/rng.h"

namespace v6mon::core {
namespace {

using transport::ConnectionModel;
using transport::ConnError;
using transport::ConnOutcome;
using transport::ConnParams;
using transport::PathCharacteristics;

PathCharacteristics live_path(double rtt_ms) {
  PathCharacteristics p;
  p.rtt_ms = rtt_ms;
  p.bottleneck_kBps = 1000.0;
  p.as_hops = 3;
  p.underlying_hops = 3;
  p.valid = true;
  return p;
}

// --- 1. ConnectionModel oracles ---------------------------------------------

TEST(ConnectionModel, BackoffScheduleMatchesClosedForm) {
  ConnParams params;
  params.backoff_base_s = 0.25;
  params.backoff_mult = 3.0;
  params.max_retries = 4;
  const ConnectionModel model(params);
  for (std::size_t k = 1; k <= params.max_retries; ++k) {
    EXPECT_DOUBLE_EQ(model.backoff_delay_s(k),
                     0.25 * std::pow(3.0, static_cast<double>(k - 1)))
        << "retry " << k;
  }
}

TEST(ConnectionModel, NoRouteFailsInstantly) {
  const ConnectionModel model(ConnParams{});
  util::Rng rng(7);
  const ConnOutcome out = model.connect(nullptr, rng);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, ConnError::kNoRoute);
  // Like a local EHOSTUNREACH: one attempt, no wall time, no retries —
  // there is nothing to back off towards.
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_DOUBLE_EQ(out.latency_s, 0.0);
  EXPECT_DOUBLE_EQ(out.handshake_s, 0.0);
}

TEST(ConnectionModel, BlackholedRouteTimesOutEveryAttempt) {
  ConnParams params;
  params.timeout_s = 2.0;
  params.max_retries = 2;
  params.backoff_base_s = 0.5;
  params.backoff_mult = 2.0;
  const ConnectionModel model(params);
  PathCharacteristics hole = live_path(40.0);
  hole.valid = false;  // routed, but the data plane blackholes
  util::Rng rng(7);
  const ConnOutcome out = model.connect(&hole, rng);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, ConnError::kTimeout);
  EXPECT_EQ(out.attempts, 3u);
  // 3 full timeouts plus the two backoff gaps (0.5 + 1.0).
  EXPECT_DOUBLE_EQ(out.latency_s, 3 * 2.0 + 0.5 + 1.0);
}

TEST(ConnectionModel, RttPastDeadlineIsATimeout) {
  ConnParams params;
  params.timeout_s = 1.0;
  params.max_retries = 0;
  const ConnectionModel model(params);
  const PathCharacteristics slow = live_path(1500.0);  // 1.5 s handshake
  util::Rng rng(7);
  const ConnOutcome out = model.connect(&slow, rng);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, ConnError::kTimeout);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_DOUBLE_EQ(out.latency_s, 1.0);  // costs the deadline, not the RTT
}

TEST(ConnectionModel, LivePathConnectsOnFirstAttempt) {
  const ConnectionModel model(ConnParams{});
  const PathCharacteristics path = live_path(40.0);
  util::Rng rng(7);
  const ConnOutcome out = model.connect(&path, rng);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.error, ConnError::kNone);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_DOUBLE_EQ(out.handshake_s, 0.040);
  EXPECT_DOUBLE_EQ(out.latency_s, 0.040);
}

TEST(ConnectionModel, HandshakeFlooredAtOneMillisecond) {
  // A 0-RTT path still costs a kernel round trip.
  EXPECT_DOUBLE_EQ(ConnectionModel::handshake_seconds(live_path(0.0)), 0.001);
}

TEST(ConnectionModel, ResetProbOneExhaustsTheRetryBudget) {
  ConnParams params;
  params.reset_prob = 1.0;
  params.max_retries = 2;
  params.backoff_base_s = 0.1;
  params.backoff_mult = 2.0;
  const ConnectionModel model(params);
  const PathCharacteristics path = live_path(100.0);
  util::Rng rng(7);
  const ConnOutcome out = model.connect(&path, rng);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, ConnError::kReset);
  EXPECT_EQ(out.attempts, 3u);
  // An RST answers at handshake speed — each attempt costs one RTT, not
  // the timeout deadline.
  EXPECT_DOUBLE_EQ(out.latency_s, 3 * 0.1 + 0.1 + 0.2);
}

TEST(ConnectionModel, DefaultParamsConsumeNoDraws) {
  // With reset_prob == 0 a connect() is a pure function of the path: the
  // caller's stream must be exactly where it started. This is the other
  // half of the kNone byte-identity story — even enabled policies leave
  // the measurement streams untouched.
  const ConnectionModel model(ConnParams{});
  const PathCharacteristics path = live_path(40.0);
  util::Rng used(99), fresh(99);
  (void)model.connect(&path, used);
  (void)model.connect(nullptr, used);
  EXPECT_EQ(used.uniform_u64(0, 1u << 30), fresh.uniform_u64(0, 1u << 30));
}

TEST(ConnectionModel, ParamDomainsAreValidated) {
  const auto reject = [](auto mutate) {
    ConnParams p;
    mutate(p);
    EXPECT_THROW(p.validate(), ConfigError);
  };
  reject([](ConnParams& p) { p.timeout_s = 0.0; });
  reject([](ConnParams& p) { p.timeout_s = -1.0; });
  reject([](ConnParams& p) { p.max_retries = 101; });
  reject([](ConnParams& p) { p.backoff_base_s = -0.1; });
  reject([](ConnParams& p) { p.backoff_mult = 0.5; });
  reject([](ConnParams& p) { p.reset_prob = 1.5; });
  reject([](ConnParams& p) { p.reset_prob = -0.1; });
  reject([](ConnParams& p) { p.race_headstart_s = -0.3; });
  EXPECT_NO_THROW(ConnParams{}.validate());
}

// --- 2. Combiner oracles -----------------------------------------------------

ConnOutcome ok_outcome(double latency_s) {
  ConnOutcome o;
  o.ok = true;
  o.attempts = 1;
  o.latency_s = latency_s;
  o.handshake_s = latency_s;
  return o;
}

ConnOutcome failed_outcome(double latency_s) {
  ConnOutcome o;
  o.error = ConnError::kTimeout;
  o.attempts = 1;
  o.latency_s = latency_s;
  return o;
}

TEST(FallbackDecide, SequentialPrefersWorkingV6) {
  const FallbackDecision d = decide_sequential(ok_outcome(0.5), ConnOutcome{});
  EXPECT_TRUE(d.ok);
  EXPECT_TRUE(d.used_v6);
  EXPECT_DOUBLE_EQ(d.user_latency_s, 0.5);
}

TEST(FallbackDecide, SequentialFallbackWaitsOutTheV6Chain) {
  // The 2011 browser: the user pays the whole failed v6 chain before v4
  // even dials.
  const FallbackDecision d = decide_sequential(failed_outcome(9.0), ok_outcome(0.04));
  EXPECT_TRUE(d.ok);
  EXPECT_FALSE(d.used_v6);
  EXPECT_DOUBLE_EQ(d.user_latency_s, 9.04);
}

TEST(FallbackDecide, SequentialBothFailed) {
  const FallbackDecision d = decide_sequential(failed_outcome(9.0), failed_outcome(9.0));
  EXPECT_FALSE(d.ok);
}

TEST(FallbackDecide, RaceFasterV6Wins) {
  const FallbackDecision d = decide_race(ok_outcome(0.05), ok_outcome(0.04), 0.3);
  EXPECT_TRUE(d.ok);
  EXPECT_TRUE(d.used_v6);
  EXPECT_DOUBLE_EQ(d.user_latency_s, 0.05);
}

TEST(FallbackDecide, RaceExactTieGoesToV6) {
  // v6 connects at 0.5; v4 at headstart 0.25 + 0.25 = 0.5 — all exactly
  // representable, so the tie is exact. The polite Happy-Eyeballs
  // preference: an exact tie is an IPv6 win.
  const FallbackDecision d = decide_race(ok_outcome(0.5), ok_outcome(0.25), 0.25);
  EXPECT_TRUE(d.ok);
  EXPECT_TRUE(d.used_v6);
  EXPECT_DOUBLE_EQ(d.user_latency_s, 0.5);
}

TEST(FallbackDecide, RaceSlowV6LosesToStaggeredV4) {
  const FallbackDecision d = decide_race(ok_outcome(0.5), ok_outcome(0.04), 0.3);
  EXPECT_TRUE(d.ok);
  EXPECT_FALSE(d.used_v6);
  EXPECT_DOUBLE_EQ(d.user_latency_s, 0.34);
}

TEST(FallbackDecide, RaceFallbackWhenV6Fails) {
  const FallbackDecision d = decide_race(failed_outcome(9.0), ok_outcome(0.04), 0.3);
  EXPECT_TRUE(d.ok);
  EXPECT_FALSE(d.used_v6);
  EXPECT_DOUBLE_EQ(d.user_latency_s, 0.34);
}

// --- 3. Campaign determinism matrix -----------------------------------------

scenario::WorldSpec tiny_spec() {
  scenario::WorldSpec spec;
  spec.seed = 1103;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 25;
  spec.topology.num_stub = 120;
  spec.catalog.initial_sites = 2000;
  spec.catalog.churn_per_round = 10;
  spec.catalog.num_rounds = 8;
  spec.catalog.adoption = {0.5, 0.4, 0.3, 0.25, 0.2, 0.15};
  spec.w6d_round = 5;
  spec.vantage_points = {{.name = "VP-a",
                          .type = VantagePoint::Type::kAcademic,
                          .region = topo::Region::kNorthAmerica,
                          .start_round = 0,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSameProviders},
                         {.name = "VP-b",
                          .type = VantagePoint::Type::kCommercial,
                          .region = topo::Region::kEurope,
                          .start_round = 2,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSubsetProviders}};
  return spec;
}

const World& tiny_world() {
  static const World w = scenario::build_world(tiny_spec());
  return w;
}

std::unique_ptr<Campaign> run_campaign(const World& world, CampaignConfig cfg) {
  if (cfg.sink == SinkBackend::kSpool) {
    std::filesystem::create_directories(cfg.spool_dir);
  }
  auto campaign = std::make_unique<Campaign>(world, std::move(cfg));
  campaign->run();
  campaign->run_w6d();
  campaign->finalize();
  return campaign;
}

CampaignConfig fallback_cfg(FallbackPolicy policy, unsigned threads,
                            SinkBackend sink) {
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = threads;
  cfg.sink = sink;
  cfg.spool_dir = "fallback_test_spool";
  cfg.monitor.fallback = policy;
  return cfg;
}

void expect_stats_eq(const FallbackStats& a, const FallbackStats& b) {
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.user_success, b.user_success);
  EXPECT_EQ(a.used_v6, b.used_v6);
  EXPECT_EQ(a.fell_back, b.fell_back);
  EXPECT_EQ(a.both_failed, b.both_failed);
  EXPECT_EQ(a.v6_timeout, b.v6_timeout);
  EXPECT_EQ(a.v6_reset, b.v6_reset);
  EXPECT_EQ(a.v6_noroute, b.v6_noroute);
  EXPECT_EQ(a.added_latency_us, b.added_latency_us);
  EXPECT_EQ(a.user_latency_us, b.user_latency_us);
}

void expect_stats_invariants(const FallbackStats& s) {
  EXPECT_EQ(s.evaluated, s.user_success + s.both_failed);
  EXPECT_EQ(s.user_success, s.used_v6 + s.fell_back);
  // <= because a raced v6 chain can connect and still lose to the
  // staggered v4 dial: fell_back without a terminal v6 error.
  EXPECT_LE(s.used_v6 + s.v6_timeout + s.v6_reset + s.v6_noroute, s.evaluated);
  EXPECT_GE(s.user_latency_us, s.added_latency_us);
}

/// The deterministic conn-layer footprint of one campaign run: per-VP
/// tallies, the conn.* counters, and the handshake histogram's bin counts
/// (simulated seconds, so the bins — not just the totals — must agree).
struct ConnSnapshot {
  std::vector<FallbackStats> per_vp;
  std::uint64_t attempts = 0, established = 0, fallbacks = 0;
  std::uint64_t noroute = 0, resets = 0, timeouts = 0, dns_timeouts = 0;
  std::vector<std::uint64_t> handshake_bins;
};

ConnSnapshot run_and_snapshot(const World& world, CampaignConfig cfg) {
  auto& metrics = obs::metrics();
  metrics.reset();
  metrics.set_enabled(true);
  const auto campaign = run_campaign(world, std::move(cfg));
  ConnSnapshot snap;
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    snap.per_vp.push_back(campaign->fallback_stats(vp));
  }
  snap.attempts = metrics.counter_value("conn.attempts");
  snap.established = metrics.counter_value("conn.established");
  snap.fallbacks = metrics.counter_value("conn.fallbacks");
  snap.noroute = metrics.counter_value("conn.noroute");
  snap.resets = metrics.counter_value("conn.resets");
  snap.timeouts = metrics.counter_value("conn.timeouts");
  snap.dns_timeouts = metrics.counter_value("dns.timeouts");
  snap.handshake_bins = metrics.histogram_bins("conn.handshake_seconds");
  metrics.set_enabled(false);
  return snap;
}

void expect_snapshot_eq(const ConnSnapshot& a, const ConnSnapshot& b) {
  ASSERT_EQ(a.per_vp.size(), b.per_vp.size());
  for (std::size_t vp = 0; vp < a.per_vp.size(); ++vp) {
    SCOPED_TRACE("vp " + std::to_string(vp));
    expect_stats_eq(a.per_vp[vp], b.per_vp[vp]);
  }
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.established, b.established);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.noroute, b.noroute);
  EXPECT_EQ(a.resets, b.resets);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.dns_timeouts, b.dns_timeouts);
  EXPECT_EQ(a.handshake_bins, b.handshake_bins);
}

TEST(FallbackDeterminism, TalliesInvariantAcrossThreadsAndSinks) {
  // The full {threads} x {sink} matrix for both enabled policies, each
  // cell compared against the serial in-memory reference. DNS timeout
  // injection rides along so dns.timeouts is pinned in the same matrix
  // (the ISSUE 9 resolver-accounting satellite).
  const World& world = tiny_world();
  for (const FallbackPolicy policy :
       {FallbackPolicy::kSequential, FallbackPolicy::kRace}) {
    SCOPED_TRACE(fallback_policy_name(policy));
    CampaignConfig ref_cfg = fallback_cfg(policy, 1, SinkBackend::kSharded);
    ref_cfg.monitor.dns.timeout_prob = 0.1;
    const ConnSnapshot reference = run_and_snapshot(world, ref_cfg);

    // Sanity on the reference itself: the policy actually dialed sites
    // and the taxonomy sums close.
    ASSERT_GT(reference.attempts, 0u);
    std::uint64_t evaluated = 0;
    for (const FallbackStats& s : reference.per_vp) {
      expect_stats_invariants(s);
      evaluated += s.evaluated;
    }
    ASSERT_GT(evaluated, 0u);
    EXPECT_GT(reference.dns_timeouts, 0u);

    for (const SinkBackend sink : {SinkBackend::kSharded, SinkBackend::kSpool}) {
      for (const unsigned threads : {1u, 8u}) {
        if (sink == SinkBackend::kSharded && threads == 1) continue;  // reference
        SCOPED_TRACE("sink " + std::to_string(static_cast<int>(sink)) +
                     " threads " + std::to_string(threads));
        CampaignConfig cfg = fallback_cfg(policy, threads, sink);
        cfg.monitor.dns.timeout_prob = 0.1;
        expect_snapshot_eq(reference, run_and_snapshot(world, cfg));
      }
    }
  }
}

TEST(FallbackDeterminism, ObservationBytesIdenticalAcrossPolicies) {
  // The conn layer is an observation-only overlay: whatever the policy,
  // the measurement pipeline must emit the same bytes, because the conn
  // stream is a child of the site RNG and child derivation consumes no
  // parent draws.
  const World& world = tiny_world();
  const auto none = run_campaign(world, fallback_cfg(FallbackPolicy::kNone, 2,
                                                     SinkBackend::kSharded));
  const auto seq = run_campaign(world, fallback_cfg(FallbackPolicy::kSequential, 2,
                                                    SinkBackend::kSharded));
  const auto race = run_campaign(world, fallback_cfg(FallbackPolicy::kRace, 2,
                                                     SinkBackend::kSharded));
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    SCOPED_TRACE(world.vantage_points[vp].name);
    const std::string reference = none->results(vp).to_csv();
    EXPECT_EQ(reference, seq->results(vp).to_csv());
    EXPECT_EQ(reference, race->results(vp).to_csv());
    EXPECT_EQ(none->w6d_results(vp).to_csv(), seq->w6d_results(vp).to_csv());
    EXPECT_EQ(none->w6d_results(vp).to_csv(), race->w6d_results(vp).to_csv());

    // kNone means *no conn layer at all*: nothing dialed, nothing tallied.
    const FallbackStats off = none->fallback_stats(vp);
    EXPECT_EQ(off.evaluated, 0u);
    EXPECT_EQ(off.user_success + off.both_failed + off.used_v6 + off.fell_back, 0u);

    // Per-VP DNS accounting (satellite): the resolver's Stats survive
    // into the campaign aggregate — queries happened at every VP.
    EXPECT_GT(none->dns_stats(vp).queries, 0u);
    EXPECT_EQ(none->dns_stats(vp).queries, seq->dns_stats(vp).queries);
  }
}

TEST(FallbackDeterminism, SequentialFallsBackWhenTheV6ChainDies) {
  // The frozen tiny world routes every AAAA it publishes, so v6 chain
  // failure is injected at the conn layer: with reset_prob = 0.25 about
  // 1.6% of chains lose all three attempts to RSTs. Sequential must
  // carry those sites over IPv4, record the reset taxonomy, and charge
  // the fallback tax for the dead v6 chain.
  const World& world = tiny_world();
  CampaignConfig cfg =
      fallback_cfg(FallbackPolicy::kSequential, 2, SinkBackend::kSharded);
  cfg.monitor.conn.reset_prob = 0.25;
  const auto campaign = run_campaign(world, cfg);
  FallbackStats total;
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    total.merge(campaign->fallback_stats(vp));
  }
  expect_stats_invariants(total);
  EXPECT_GT(total.evaluated, 0u);
  EXPECT_GT(total.used_v6, 0u);
  EXPECT_GT(total.fell_back, 0u);
  EXPECT_GT(total.v6_reset, 0u);
  // A dead v6 chain costs handshakes and backoffs before v4 dials: the
  // tax must be visible whenever anything fell back.
  EXPECT_GT(total.added_latency_us, 0u);
}

// --- 4. Epoch engine: withdrawals surface as kNoRoute -----------------------

TEST(FallbackEvolvingWorld, WithdrawalsSurfaceAsNoRouteMidCampaign) {
  // Prefix withdrawals from the epoch stream leave AAAA-published sites
  // with no v6 route in the RIB; the conn layer must classify those as
  // kNoRoute (instant), not as timeouts — the invalidation protocol under
  // connection failure.
  scenario::WorldSpec spec = tiny_spec();
  spec.evolution.enabled = true;
  spec.evolution.delta_rate = 4.0;
  spec.evolution.epoch_interval = 2;
  spec.evolution.max_as_fraction = 0.05;
  spec.evolution.depletion_round = 4;

  WorldTimeline timeline = scenario::build_timeline(spec);
  Campaign campaign(timeline,
                    fallback_cfg(FallbackPolicy::kSequential, 2, SinkBackend::kSharded));
  campaign.run();
  campaign.run_w6d();
  campaign.finalize();
  FallbackStats total;
  for (std::size_t vp = 0; vp < campaign.world().vantage_points.size(); ++vp) {
    total.merge(campaign.fallback_stats(vp));
  }
  expect_stats_invariants(total);
  EXPECT_GT(total.evaluated, 0u);
  EXPECT_GT(total.v6_noroute, 0u);
}

// --- 5. Satellite: all-attempts-fail edge + tally parity --------------------

TEST(MeasureLoopFailureEdge, TotalDownloadFailureIsAnExplicitStatus) {
  // failure_prob = 1 starves every family of samples: no site may be
  // recorded as measured (a 0-sample "success" would divide by zero in
  // the speed derivation), every dual-stack site lands in an explicit
  // download-failed status, and the campaign completes without tripping
  // a contract.
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = 2;
  cfg.monitor.download.failure_prob = 1.0;
  const auto campaign = run_campaign(tiny_world(), cfg);
  for (std::size_t vp = 0; vp < tiny_world().vantage_points.size(); ++vp) {
    SCOPED_TRACE(tiny_world().vantage_points[vp].name);
    const ResultsDb& db = campaign->results(vp);
    std::uint64_t download_failed = 0;
    for (std::uint32_t r = 0; r < db.rounds(); ++r) {
      const RoundCounters& c = db.round_counters(r);
      EXPECT_EQ(c.measured, 0u) << "round " << r;
      download_failed += c.download_failed;
    }
    EXPECT_GT(download_failed, 0u);
  }
}

/// transport.downloads / transport.download_failures after `fn` runs with
/// the registry on.
std::pair<std::uint64_t, std::uint64_t> download_counters(const auto& fn) {
  auto& metrics = obs::metrics();
  metrics.reset();
  metrics.set_enabled(true);
  fn();
  const std::pair<std::uint64_t, std::uint64_t> counts{
      metrics.counter_value("transport.downloads"),
      metrics.counter_value("transport.download_failures")};
  metrics.set_enabled(false);
  metrics.reset();
  return counts;
}

TEST(DownloadTallyParity, BatchedMatchesScalarAttemptForAttempt) {
  // The monitor batches its download counters: n simulate_prepared
  // attempts count into a DownloadTally that is flushed once. That flush
  // must add to the registry exactly what n scalar simulate calls add one
  // attempt at a time — including the all-fail short-circuits — over the
  // same draw stream (pinned by comparing the results too).
  struct Case {
    double failure_prob, noise_sigma;
    bool valid_prep;
  };
  const Case cases[] = {
      {0.5, 0.2, true},  // interleaved Bernoulli + lognormal
      {0.0, 0.2, true},  // lognormal only
      {0.5, 0.0, true},  // Bernoulli only
      {0.0, 0.0, true},  // fully deterministic
      {1.0, 0.2, true},  // every attempt fails, draw-free
      {0.1, 0.2, false},  // invalid prepared download
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("p=" + std::to_string(c.failure_prob) +
                 " sigma=" + std::to_string(c.noise_sigma) +
                 (c.valid_prep ? "" : " invalid"));
    transport::DownloadParams params;
    params.failure_prob = c.failure_prob;
    params.noise_sigma = c.noise_sigma;
    const transport::DownloadSimulator sim(params);
    const PathCharacteristics path = live_path(40.0);
    const double page_kb = c.valid_prep ? 50.0 : 0.0;
    const transport::PreparedDownload prep = sim.prepare(path, page_kb, 200.0);
    ASSERT_EQ(prep.valid, c.valid_prep);

    constexpr std::size_t kN = 100;
    util::Rng scalar_rng(31), prepared_rng(31);
    std::vector<transport::DownloadResult> scalar_out(kN), prepared_out(kN);
    const auto scalar = download_counters([&] {
      for (std::size_t i = 0; i < kN; ++i) {
        scalar_out[i] = sim.simulate(path, page_kb, 200.0, scalar_rng);
      }
    });
    transport::DownloadTally tally;
    const auto prepared = download_counters([&] {
      for (std::size_t i = 0; i < kN; ++i) {
        prepared_out[i] = sim.simulate_prepared(prep, prepared_rng, tally);
      }
      transport::DownloadSimulator::flush_tally(tally);
    });

    std::size_t scalar_ok = 0;
    for (const transport::DownloadResult& r : scalar_out) scalar_ok += r.ok ? 1 : 0;
    EXPECT_EQ(scalar.first, kN);
    EXPECT_EQ(scalar.second, kN - scalar_ok);
    EXPECT_EQ(prepared, scalar);
    EXPECT_EQ(tally.attempts, kN);
    EXPECT_EQ(tally.failures, kN - scalar_ok);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(scalar_out[i].ok, prepared_out[i].ok) << "attempt " << i;
      EXPECT_DOUBLE_EQ(scalar_out[i].seconds, prepared_out[i].seconds)
          << "attempt " << i;
    }
  }
}

}  // namespace
}  // namespace v6mon::core
