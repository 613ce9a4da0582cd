#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "transport/download.h"
#include "transport/path.h"
#include "util/rng.h"
#include "util/stats.h"

namespace v6mon::transport {
namespace {

using topo::AsGraph;
using topo::Asn;
using topo::Region;
using topo::Relationship;
using topo::Tier;

struct Chain {
  AsGraph g;
  Asn a, b, c, d;
  Chain() {
    a = g.add_as(Tier::kStub, Region::kNorthAmerica);
    b = g.add_as(Tier::kTransit, Region::kNorthAmerica);
    c = g.add_as(Tier::kTransit, Region::kEurope);
    d = g.add_as(Tier::kStub, Region::kEurope);
    g.add_link(b, a, Relationship::kProviderCustomer, true, true, {10.0, 500.0});
    g.add_link(b, c, Relationship::kPeerPeer, true, true, {50.0, 2000.0});
    g.add_link(c, d, Relationship::kProviderCustomer, true, false, {8.0, 300.0});
  }
};

TEST(CharacterizePath, AccumulatesLatencyAndBottleneck) {
  Chain f;
  const auto pc =
      characterize_path(f.g, f.a, {f.b, f.c, f.d}, ip::Family::kIpv4);
  ASSERT_TRUE(pc.valid);
  EXPECT_EQ(pc.as_hops, 3u);
  EXPECT_EQ(pc.underlying_hops, 3u);
  EXPECT_DOUBLE_EQ(pc.rtt_ms, 2.0 * (10.0 + 50.0 + 8.0));
  EXPECT_DOUBLE_EQ(pc.bottleneck_kBps, 300.0);
  EXPECT_FALSE(pc.via_tunnel);
}

TEST(CharacterizePath, FamilyAwareness) {
  Chain f;
  // c-d link is v4-only: the v6 walk must fail.
  const auto pc = characterize_path(f.g, f.a, {f.b, f.c, f.d}, ip::Family::kIpv6);
  EXPECT_FALSE(pc.valid);
  const auto ok = characterize_path(f.g, f.a, {f.b, f.c}, ip::Family::kIpv6);
  EXPECT_TRUE(ok.valid);
}

TEST(CharacterizePath, MissingAdjacencyInvalid) {
  Chain f;
  const auto pc = characterize_path(f.g, f.a, {f.d}, ip::Family::kIpv4);
  EXPECT_FALSE(pc.valid);
}

TEST(CharacterizePath, EmptyPathIsLocalDelivery) {
  Chain f;
  const auto pc = characterize_path(f.g, f.a, {}, ip::Family::kIpv4);
  ASSERT_TRUE(pc.valid);
  EXPECT_EQ(pc.as_hops, 0u);
  EXPECT_GT(pc.bottleneck_kBps, 0.0);
  EXPECT_GT(pc.rtt_ms, 0.0);
}

TEST(CharacterizePath, TunnelLooksShortButCostsMore) {
  AsGraph g;
  const Asn relay = g.add_as(Tier::kTransit, Region::kNorthAmerica);
  const Asn island = g.add_as(Tier::kStub, Region::kNorthAmerica);
  g.node(relay).has_v6 = true;
  g.node(island).has_v6 = true;
  // Underlying v4 leg: 120ms latency, 4 hidden hops; +15ms encap, 0.85 bw.
  g.add_tunnel(relay, island, {120.0, 400.0}, 4, 15.0, 0.85);
  const auto pc = characterize_path(g, relay, {island}, ip::Family::kIpv6);
  ASSERT_TRUE(pc.valid);
  EXPECT_TRUE(pc.via_tunnel);
  EXPECT_EQ(pc.as_hops, 1u);           // apparently one hop...
  EXPECT_EQ(pc.underlying_hops, 4u);   // ...but four real ones
  EXPECT_DOUBLE_EQ(pc.rtt_ms, 2.0 * (120.0 + 15.0));
  EXPECT_DOUBLE_EQ(pc.bottleneck_kBps, 400.0 * 0.85);
}

TEST(DownloadSimulator, BasicDownload) {
  DownloadSimulator sim({.setup_rtts = 2.0,
                         .window_kB = 64.0,
                         .noise_sigma = 0.0,
                         .failure_prob = 0.0,
                         .fixed_overhead_s = 0.0});
  PathCharacteristics pc;
  pc.valid = true;
  pc.rtt_ms = 100.0;
  pc.bottleneck_kBps = 1000.0;
  util::Rng rng(1);
  const auto r = sim.simulate(pc, 50.0, 200.0, rng);
  ASSERT_TRUE(r.ok);
  // rate = min(200, 1000, 64/0.1=640) = 200; time = 2*0.1 + 50/200 = 0.45.
  EXPECT_NEAR(r.seconds, 0.45, 1e-9);
  EXPECT_NEAR(r.speed_kBps(), 50.0 / 0.45, 1e-6);
}

TEST(DownloadSimulator, WindowLimitedOnLongRtt) {
  DownloadSimulator sim({.setup_rtts = 0.0,
                         .window_kB = 64.0,
                         .noise_sigma = 0.0,
                         .failure_prob = 0.0,
                         .fixed_overhead_s = 0.0});
  PathCharacteristics pc;
  pc.valid = true;
  pc.rtt_ms = 400.0;  // window/rtt = 160 kB/s
  pc.bottleneck_kBps = 1e6;
  util::Rng rng(1);
  const auto r = sim.simulate(pc, 160.0, 1e6, rng);
  EXPECT_NEAR(r.seconds, 1.0, 1e-9);
}

TEST(DownloadSimulator, SpeedDecreasesWithRtt) {
  DownloadSimulator sim({.setup_rtts = 2.0,
                         .window_kB = 64.0,
                         .noise_sigma = 0.0,
                         .failure_prob = 0.0,
                         .fixed_overhead_s = 0.02});
  util::Rng rng(1);
  double prev = 1e18;
  for (double rtt : {20.0, 60.0, 120.0, 250.0, 500.0}) {
    PathCharacteristics pc;
    pc.valid = true;
    pc.rtt_ms = rtt;
    pc.bottleneck_kBps = 1e6;
    const double speed = sim.simulate(pc, 30.0, 90.0, rng).speed_kBps();
    EXPECT_LT(speed, prev);
    prev = speed;
  }
}

TEST(DownloadSimulator, InvalidPathFails) {
  DownloadSimulator sim;
  PathCharacteristics pc;  // valid = false
  util::Rng rng(1);
  const auto r = sim.simulate(pc, 30.0, 90.0, rng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.speed_kBps(), 0.0);
}

TEST(DownloadSimulator, FailureInjection) {
  DownloadParams p;
  p.failure_prob = 1.0;
  DownloadSimulator sim(p);
  PathCharacteristics pc;
  pc.valid = true;
  pc.rtt_ms = 50.0;
  pc.bottleneck_kBps = 100.0;
  util::Rng rng(1);
  EXPECT_FALSE(sim.simulate(pc, 30.0, 90.0, rng).ok);
}

TEST(DownloadSimulator, NoiseAveragesOut) {
  DownloadParams p;
  p.noise_sigma = 0.2;
  p.failure_prob = 0.0;
  DownloadSimulator sim(p);
  PathCharacteristics pc;
  pc.valid = true;
  pc.rtt_ms = 60.0;
  pc.bottleneck_kBps = 1e6;
  util::Rng rng(3);
  util::RunningStats speeds;
  for (int i = 0; i < 4000; ++i) {
    speeds.add(sim.simulate(pc, 30.0, 90.0, rng).speed_kBps());
  }
  DownloadParams q = p;
  q.noise_sigma = 0.0;
  DownloadSimulator noiseless(q);
  const double base = noiseless.simulate(pc, 30.0, 90.0, rng).speed_kBps();
  EXPECT_NEAR(speeds.mean(), base, base * 0.05);
}

TEST(DownloadSimulator, DegenerateInputs) {
  DownloadSimulator sim;
  PathCharacteristics pc;
  pc.valid = true;
  pc.rtt_ms = 50.0;
  pc.bottleneck_kBps = 100.0;
  util::Rng rng(1);
  EXPECT_FALSE(sim.simulate(pc, 0.0, 90.0, rng).ok);
  EXPECT_FALSE(sim.simulate(pc, -5.0, 90.0, rng).ok);
  EXPECT_FALSE(sim.simulate(pc, 30.0, 0.0, rng).ok);
}

// Property: tunnel paths at apparent hop count 1 must be slower than
// native 1-hop paths with the same nominal metrics — the Table 7 artifact.
TEST(DownloadSimulator, TunnelArtifactProperty) {
  DownloadParams p;
  p.noise_sigma = 0.0;
  p.failure_prob = 0.0;
  DownloadSimulator sim(p);
  util::Rng rng(1);
  PathCharacteristics native;
  native.valid = true;
  native.rtt_ms = 2.0 * 15.0;
  native.bottleneck_kBps = 500.0;
  PathCharacteristics tunneled;
  tunneled.valid = true;
  tunneled.via_tunnel = true;
  tunneled.rtt_ms = 2.0 * (130.0 + 15.0);  // hidden 4-hop underlay + encap
  tunneled.bottleneck_kBps = 500.0 * 0.85;
  const double native_speed = sim.simulate(native, 30.0, 90.0, rng).speed_kBps();
  const double tunnel_speed = sim.simulate(tunneled, 30.0, 90.0, rng).speed_kBps();
  EXPECT_GT(native_speed, tunnel_speed * 1.3);
}

/// A realistic dual-stack-ish path for the sampler-equivalence tests.
PathCharacteristics batch_test_path() {
  PathCharacteristics pc;
  pc.valid = true;
  pc.rtt_ms = 80.0;
  pc.bottleneck_kBps = 400.0;
  pc.quality = 0.9;
  return pc;
}

/// A batch of simulate_prepared attempts must be draw-for-draw and
/// bit-for-bit identical to as many back-to-back simulate() calls on a
/// same-seeded Rng: that equality is what lets the monitor's CI loop
/// sample from a prepared download without moving a campaign byte.
/// Checked with and without failures and noise.
TEST(DownloadSimulator, BatchMatchesPerCallSimulate) {
  struct Case {
    const char* name;
    double failure_prob;
    double noise_sigma;
  };
  for (const Case c : {Case{"interleaved", 0.3, 0.12},
                       Case{"lognormal_only", 0.0, 0.12},
                       Case{"bernoulli_only", 0.3, 0.0},
                       Case{"deterministic", 0.0, 0.0}}) {
    DownloadParams params;
    params.failure_prob = c.failure_prob;
    params.noise_sigma = c.noise_sigma;
    const DownloadSimulator sim(params);
    const PathCharacteristics path = batch_test_path();
    const double page_kb = 30.0;
    const double server_rate = 90.0;
    const PreparedDownload prep = sim.prepare(path, page_kb, server_rate);
    ASSERT_TRUE(prep.valid);

    constexpr std::size_t kAttempts = 50;
    util::Rng prepared_rng(5);
    util::Rng scalar_rng(5);
    DownloadTally tally;
    std::size_t ok = 0;
    for (std::size_t i = 0; i < kAttempts; ++i) {
      const DownloadResult got = sim.simulate_prepared(prep, prepared_rng, tally);
      const DownloadResult ref = sim.simulate(path, page_kb, server_rate, scalar_rng);
      ASSERT_EQ(got.ok, ref.ok) << c.name << " attempt " << i;
      ASSERT_EQ(got.seconds, ref.seconds) << c.name << " attempt " << i;
      ASSERT_EQ(got.kbytes, ref.kbytes) << c.name << " attempt " << i;
      ok += got.ok ? 1 : 0;
    }
    if (c.failure_prob > 0.0) {
      EXPECT_GT(ok, 0u) << c.name;
      EXPECT_LT(ok, kAttempts) << c.name;
    }
    EXPECT_EQ(tally.attempts, kAttempts) << c.name;
    EXPECT_EQ(tally.failures, kAttempts - ok) << c.name;
    // Streams stay aligned: the next draw after the prepared attempts
    // matches the next draw after the scalar loop.
    EXPECT_EQ(prepared_rng.uniform_u64(0, ~std::uint64_t{0}),
              scalar_rng.uniform_u64(0, ~std::uint64_t{0}))
        << c.name;
  }
}

TEST(DownloadSimulator, BatchInvalidPrepFailsWithoutDraws) {
  const DownloadSimulator sim(DownloadParams{});
  const PreparedDownload invalid;  // valid == false
  util::Rng rng(3);
  util::Rng untouched(3);
  DownloadTally tally;
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(sim.simulate_prepared(invalid, rng, tally).ok);
  EXPECT_EQ(tally.attempts, 8u);
  EXPECT_EQ(tally.failures, 8u);
  EXPECT_EQ(rng.uniform_u64(0, ~std::uint64_t{0}),
            untouched.uniform_u64(0, ~std::uint64_t{0}));
}

TEST(DownloadSimulator, BatchCertainFailureConsumesNoDraws) {
  DownloadParams params;
  params.failure_prob = 1.0;  // chance(p >= 1) short-circuits drawlessly
  const DownloadSimulator sim(params);
  const PreparedDownload prep = sim.prepare(batch_test_path(), 30.0, 90.0);
  ASSERT_TRUE(prep.valid);
  util::Rng rng(3);
  util::Rng untouched(3);
  DownloadTally tally;
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(sim.simulate_prepared(prep, rng, tally).ok);
  EXPECT_EQ(tally.attempts, 8u);
  EXPECT_EQ(tally.failures, 8u);
  EXPECT_EQ(rng.uniform_u64(0, ~std::uint64_t{0}),
            untouched.uniform_u64(0, ~std::uint64_t{0}));
}

/// attempt_prepared draws exactly the words simulate_prepared draws and
/// tallies the same: after N attempts each, the two streams and tallies
/// agree, and so does every verdict. Failure probabilities 0, 0.002 and
/// 1, no noise, and an invalid prep.
TEST(DownloadSimulator, AttemptMatchesSimulatePreparedDraws) {
  struct Case {
    const char* name;
    double failure_prob;
    double noise_sigma;
    bool valid;
  };
  for (const Case c : {Case{"paper", 0.002, 0.12, true}, Case{"no_failures", 0.0, 0.12, true},
                       Case{"always_fails", 1.0, 0.12, true},
                       Case{"noiseless", 0.002, 0.0, true},
                       Case{"invalid_prep", 0.002, 0.12, false}}) {
    DownloadParams params;
    params.failure_prob = c.failure_prob;
    params.noise_sigma = c.noise_sigma;
    const DownloadSimulator sim(params);
    const PreparedDownload prep =
        c.valid ? sim.prepare(batch_test_path(), 30.0, 90.0) : PreparedDownload{};
    ASSERT_EQ(prep.valid, c.valid) << c.name;
    constexpr std::size_t kAttempts = 2000;  // sees failures at p = 0.002
    util::Rng attempt_rng(11);
    util::Rng simulate_rng(11);
    DownloadTally attempt_tally, simulate_tally;
    for (std::size_t i = 0; i < kAttempts; ++i) {
      ASSERT_EQ(sim.attempt_prepared(prep, attempt_rng, attempt_tally),
                sim.simulate_prepared(prep, simulate_rng, simulate_tally).ok)
          << c.name << " attempt " << i;
    }
    EXPECT_EQ(attempt_tally.attempts, simulate_tally.attempts) << c.name;
    EXPECT_EQ(attempt_tally.failures, simulate_tally.failures) << c.name;
    EXPECT_EQ(attempt_tally.attempts, kAttempts) << c.name;
    EXPECT_EQ(attempt_rng.uniform_u64(0, ~std::uint64_t{0}),
              simulate_rng.uniform_u64(0, ~std::uint64_t{0}))
        << c.name;
  }
}

/// The route memo's finish: quality_of(path_normal(p), sigma) is
/// path_quality(p, sigma) bit for bit, over random paths and sigmas.
TEST(PathQuality, QualityOfPathNormalMatchesPathQuality) {
  util::Rng rng(2011);
  for (int i = 0; i < 2000; ++i) {
    std::vector<Asn> path(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    for (Asn& a : path) a = rng.uniform_u32(1, 0xfffffffeu);
    const double sigma = i % 10 == 0 ? 0.55 : rng.uniform(1e-6, 3.0);
    const double memoized = quality_of(path_normal(path), sigma);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(memoized),
              std::bit_cast<std::uint64_t>(path_quality(path, sigma)))
        << "path of " << path.size() << " hops, sigma " << sigma;
  }
  // What quality_of is never asked: an empty path or sigma 0 is 1.0.
  EXPECT_EQ(path_quality({}, 0.55), 1.0);
  EXPECT_EQ(path_quality({1, 2}, 0.0), 1.0);
}

}  // namespace
}  // namespace v6mon::transport
