// TSan-targeted concurrency stress tests.
//
// These tests are written to make ThreadSanitizer's job easy: many
// producer threads hammering the same ThreadPool, overlapping Monitor
// rounds sharing one Campaign, concurrent PathRegistry interning, and
// concurrent resolved-row fills racing the RIB routes' path memos.
// They pass on any build, but their real value is under the `tsan`
// preset (cmake --preset tsan), where any locking mistake in
// core/thread_pool, core/results or core/campaign turns into a hard
// failure. Determinism assertions double as lost-update detectors on
// uninstrumented builds.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/monitor.h"
#include "core/results.h"
#include "core/thread_pool.h"
#include "reference_schedule.h"
#include "scenario/world_builder.h"
#include "util/error.h"

namespace v6mon::core {
namespace {

TEST(ThreadPoolStress, ManyProducersCountEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolStress, ConcurrentWaitIdleNeverHangsOrMiscounts) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::atomic<bool> producing{true};
  std::thread producer([&] {
    for (int i = 0; i < 2000; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    producing.store(false);
  });
  // Waiters poll wait_idle concurrently with the producer; wait_idle may
  // observe momentary idleness, but must never deadlock or race.
  std::vector<std::thread> waiters;
  for (int w = 0; w < 3; ++w) {
    waiters.emplace_back([&] {
      while (producing.load()) pool.wait_idle();
    });
  }
  producer.join();
  for (std::thread& t : waiters) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2000);
}

// A tight submit/wait_idle ping-pong: if wait_idle could miss the "queue
// drained, last worker finished" notification, this loop would hang (the
// gtest timeout fails the test) long before 500 iterations complete.
TEST(ThreadPoolStress, RepeatedRoundTripsHaveNoLostWakeup) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 1; round <= 500; ++round) {
    for (int i = 0; i < 4; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    ASSERT_EQ(counter.load(), 4 * round);
  }
}

TEST(ThreadPoolStress, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.shutdown();
  EXPECT_EQ(counter.load(), 1);  // shutdown drains pending work
  EXPECT_THROW(pool.submit([&counter] { counter.fetch_add(1); }), v6mon::Error);
  pool.shutdown();  // idempotent
  EXPECT_EQ(counter.load(), 1);
}

TEST(PathRegistryStress, ConcurrentInterningStaysConsistent) {
  PathRegistry reg;
  constexpr int kThreads = 6;
  constexpr topo::Asn kDistinctPaths = 64;
  std::vector<std::vector<PathId>> ids(kThreads,
                                       std::vector<PathId>(kDistinctPaths));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &ids, t] {
      for (topo::Asn p = 0; p < kDistinctPaths; ++p) {
        // Every thread interns the same 64 paths in a different order.
        const topo::Asn which = (p + static_cast<topo::Asn>(t) * 11) % kDistinctPaths;
        ids[static_cast<std::size_t>(t)][which] =
            reg.intern({which, which + 1, which + 2});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.size(), kDistinctPaths);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[static_cast<std::size_t>(t)], ids[0])
        << "interning must dedup to identical ids on every thread";
  }
}

// --- Overlapping Campaign rounds -----------------------------------------

scenario::WorldSpec stress_spec() {
  scenario::WorldSpec spec;
  spec.seed = 4242;
  spec.topology.num_tier1 = 3;
  spec.topology.num_transit = 18;
  spec.topology.num_stub = 80;
  spec.catalog.initial_sites = 900;
  spec.catalog.churn_per_round = 10;
  spec.catalog.num_rounds = 6;
  spec.catalog.dns_cache_sites = 60;
  spec.catalog.adoption = {0.5, 0.4, 0.3, 0.2};
  spec.vantage_points = {
      {.name = "A",
       .type = VantagePoint::Type::kAcademic,
       .region = topo::Region::kNorthAmerica,
       .start_round = 0,
       .has_as_path = true,
       .whitelisted = false,
       .uses_dns_cache_supplement = true,
       .num_v4_providers = 2,
       .v6_mode = scenario::V6UplinkMode::kSeparateProvider},
      {.name = "B",
       .type = VantagePoint::Type::kCommercial,
       .region = topo::Region::kEurope,
       .start_round = 0,
       .has_as_path = true,
       .whitelisted = false,
       .uses_dns_cache_supplement = false,
       .num_v4_providers = 1,
       .v6_mode = scenario::V6UplinkMode::kSameProviders},
  };
  return spec;
}

const World& stress_world() {
  static const World world = scenario::build_world(stress_spec());
  return world;
}

RoundCounters counters_of(const Campaign& c, std::size_t vp, std::uint32_t round) {
  return c.results(vp).round_counters(round);
}

void expect_equal_counters(const RoundCounters& a, const RoundCounters& b,
                           std::size_t vp, std::uint32_t round) {
  EXPECT_EQ(a.listed, b.listed) << "vp=" << vp << " round=" << round;
  EXPECT_EQ(a.v4_only, b.v4_only) << "vp=" << vp << " round=" << round;
  EXPECT_EQ(a.v6_only, b.v6_only) << "vp=" << vp << " round=" << round;
  EXPECT_EQ(a.dual, b.dual) << "vp=" << vp << " round=" << round;
  EXPECT_EQ(a.dns_failed, b.dns_failed) << "vp=" << vp << " round=" << round;
  EXPECT_EQ(a.measured, b.measured) << "vp=" << vp << " round=" << round;
}

// Workers running sites of one Monitor at once. Without resolved rows
// every call resolves per call: it interns its route pair into the
// Monitor's one registry under its mutex, and sites that share a RIB
// route race its path memo (a relaxed atomic; racing workers store the
// same bits). With rows resolved by resolve_sites beforehand, as a
// campaign round does, the workers only read the shared rows. Under TSan
// an unguarded intern, a plain memo write or a row written during the
// fan-out is a hard failure; on plain builds every observation, pair by
// content, must equal a serial Monitor's.
TEST(MonitorStress, ConcurrentFillsShareRegistryAndRouteMemos) {
  const World& w = stress_world();
  constexpr std::uint32_t kRound = 3;
  constexpr std::size_t kThreads = 6;
  std::vector<std::uint32_t> dual;
  for (const web::Site& s : w.catalog.sites()) {
    if (w.catalog.dual_stack_at(s, kRound)) dual.push_back(s.id);
  }
  ASSERT_GT(dual.size(), 50u);
  for (const VantagePoint& vp : w.vantage_points) {
    SCOPED_TRACE(vp.name);
    Monitor serial(w, vp, {});
    Monitor raced(w, vp, {});
    Monitor resolved(w, vp, {});
    resolved.resolve_sites(dual, kRound);
    ASSERT_GT(resolved.resolved_sites().size(), 0u);
    const auto observe = [&](Monitor& m, std::uint32_t id) {
      return m.monitor_site(w.catalog.site(id), kRound, {}, util::Rng(id));
    };
    std::vector<Observation> want;
    for (const std::uint32_t id : dual) want.push_back(observe(serial, id));
    const auto run_concurrently = [&](Monitor& m) {
      std::vector<Observation> got(dual.size());
      std::latch start(kThreads);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          start.arrive_and_wait();
          for (std::size_t i = t; i < dual.size(); i += kThreads) {
            got[i] = observe(m, dual[i]);
          }
        });
      }
      for (std::thread& th : threads) th.join();
      return got;
    };
    const std::vector<Observation> got = run_concurrently(raced);
    const std::vector<Observation> read = run_concurrently(resolved);
    EXPECT_EQ(raced.resolved_sites().size(), 0u);
    for (const Monitor* m : {&raced, &resolved}) {
      EXPECT_EQ(m->routes().pair_count(), serial.routes().pair_count());
      EXPECT_EQ(m->routes().bytes(), serial.routes().bytes());
    }
    const auto text = [](const PathRegistry& reg, PairId id) {
      const RoutePair p = reg.pair(id);
      std::string out;
      for (const RouteId r : {p.v4, p.v6}) {
        const Route route = reg.route(r);
        out += std::to_string(route.origin) + ":" +
               (route.path == kNoPath ? "-" : reg.to_string(route.path)) + ";";
      }
      return out;
    };
    for (std::size_t i = 0; i < dual.size(); ++i) {
      SCOPED_TRACE(dual[i]);
      EXPECT_EQ(got[i].status, want[i].status);
      EXPECT_EQ(got[i].v4_speed_kBps, want[i].v4_speed_kBps);
      EXPECT_EQ(got[i].v6_speed_kBps, want[i].v6_speed_kBps);
      EXPECT_EQ(text(raced.routes(), got[i].route_pair),
                text(serial.routes(), want[i].route_pair));
      EXPECT_EQ(read[i].status, want[i].status);
      EXPECT_EQ(read[i].v4_speed_kBps, want[i].v4_speed_kBps);
      EXPECT_EQ(read[i].v6_speed_kBps, want[i].v6_speed_kBps);
      EXPECT_EQ(text(resolved.routes(), read[i].route_pair),
                text(serial.routes(), want[i].route_pair));
    }
  }
}

// Monitor rounds for both vantage points run overlapped on a shared
// Campaign from several outer threads (each round internally fans out to
// its own ThreadPool): per-vp ResultsDbs and the shared per-db
// PathRegistry see heavy concurrent traffic. Result counts must equal a
// serial reference run exactly.
TEST(CampaignStress, OverlappingRoundsMatchSerialRun) {
  const World& w = stress_world();
  CampaignConfig cfg;
  cfg.seed = 21;
  cfg.threads = 2;

  Campaign serial(w, cfg);
  for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
    for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
      serial.run_round(vp, round);
    }
  }
  serial.finalize();

  Campaign overlapped(w, cfg);
  struct Job {
    std::size_t vp;
    std::uint32_t round;
  };
  std::vector<Job> jobs;
  for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
    for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
      jobs.push_back({vp, round});
    }
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> outer;
  for (int t = 0; t < 4; ++t) {
    outer.emplace_back([&] {
      for (std::size_t j = next.fetch_add(1); j < jobs.size();
           j = next.fetch_add(1)) {
        overlapped.run_round(jobs[j].vp, jobs[j].round);
      }
    });
  }
  for (std::thread& t : outer) t.join();
  overlapped.finalize();

  for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
    for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
      expect_equal_counters(counters_of(overlapped, vp, round),
                            counters_of(serial, vp, round), vp, round);
    }
    // Same per-site series contents as well (order-insensitive counts).
    EXPECT_EQ(overlapped.results(vp).num_sites(), serial.results(vp).num_sites());
  }
}

// Campaign::run_w6d runs each vantage point's whole mini-round sequence
// as one parallel_index item, concurrent with nothing but *other* VPs'
// work.
// This test drives the harder overlap by hand: one VP's W6D event (w6d
// store epoch_mu -> regular store epoch_mu, in that order) racing
// another VP's regular rounds on the same shared Campaign and pool.
// Under TSan any lock-order inversion or unguarded resolved-site-table
// growth is a hard failure; on plain builds the byte compare pins that
// mini-round ingest ordering and every observable are schedule-free.
TEST(CampaignStress, W6dOverlappingOtherVpRoundsMatchesSerialRun) {
  scenario::WorldSpec spec = stress_spec();
  spec.w6d_round = 3;
  const World w = scenario::build_world(spec);

  CampaignConfig ref_cfg;
  ref_cfg.seed = 21;
  ref_cfg.threads = 1;
  Campaign serial(w, ref_cfg);
  run_reference_schedule(serial, /*evolving=*/false);

  CampaignConfig cfg = ref_cfg;
  cfg.threads = 2;
  Campaign overlapped(w, cfg);
  // VP 0's regular rounds complete up front; then VP 0's (and VP 1's)
  // W6D event runs while VP 1's regular rounds are still in flight on
  // an outer thread.
  for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
    overlapped.run_round(0, round);
  }
  std::thread regular([&] {
    for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
      overlapped.run_round(1, round);
    }
  });
  overlapped.run_w6d();
  regular.join();
  overlapped.finalize();

  for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
    SCOPED_TRACE(w.vantage_points[vp].name);
    EXPECT_EQ(overlapped.results(vp).to_csv(), serial.results(vp).to_csv());
    EXPECT_EQ(overlapped.w6d_results(vp).to_csv(),
              serial.w6d_results(vp).to_csv());
  }
}

// Under DNS loss the round scan reads a per-site DNS-fate column that is
// filled on first use. Here the first use is four outer threads released
// together, each calling run_round on its own (vp, round parity) chain
// before any run(): they race the fill, and every scan must see the
// finished column. Under TSan a scan that reads it without a
// happens-before edge to the fill is a hard failure; on plain builds the
// byte compare against the serial reference, which runs the full
// monitor on every site and so never reads the column, catches a
// missing or half-filled one.
TEST(CampaignStress, ConcurrentFirstRoundsRaceDnsFateFill) {
  const World& w = stress_world();
  CampaignConfig ref_cfg;
  ref_cfg.seed = 21;
  ref_cfg.threads = 1;
  ref_cfg.fast_path = false;
  ref_cfg.monitor.dns.timeout_prob = 0.2;
  Campaign serial(w, ref_cfg);
  run_reference_schedule(serial, /*evolving=*/false);

  CampaignConfig cfg = ref_cfg;
  cfg.threads = 2;
  cfg.fast_path = true;
  Campaign raced(w, cfg);
  constexpr std::uint32_t kOuter = 4;
  const std::size_t num_vps = w.vantage_points.size();
  std::latch start(kOuter);
  std::vector<std::thread> outer;
  for (std::uint32_t t = 0; t < kOuter; ++t) {
    outer.emplace_back([&, t] {
      const std::size_t vp = t % num_vps;
      start.arrive_and_wait();
      for (std::uint32_t round = t / 2; round <= w.num_rounds; round += 2) {
        raced.run_round(vp, round);
      }
    });
  }
  for (std::thread& t : outer) t.join();
  raced.run_w6d();
  raced.finalize();

  for (std::size_t vp = 0; vp < num_vps; ++vp) {
    SCOPED_TRACE(w.vantage_points[vp].name);
    EXPECT_EQ(raced.results(vp).to_csv(), serial.results(vp).to_csv());
    for (std::uint32_t round = 0; round <= w.num_rounds; ++round) {
      expect_equal_counters(counters_of(raced, vp, round),
                            counters_of(serial, vp, round), vp, round);
    }
    EXPECT_EQ(raced.dns_stats(vp).queries, serial.dns_stats(vp).queries);
    EXPECT_EQ(raced.dns_stats(vp).timeouts, serial.dns_stats(vp).timeouts);
    EXPECT_GT(raced.dns_stats(vp).timeouts, 0u);
  }
}

}  // namespace
}  // namespace v6mon::core
