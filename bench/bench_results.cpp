// Ingest throughput of the ObservationSink backends: the single-mutex
// reference store vs the per-worker sharded store, at 1 and 8 ingest
// threads. The store's registry (in a campaign, its vantage point's
// Monitor::routes()) holds a small working set of route pairs — a few
// hundred distinct pairs cover almost every observation in a campaign —
// and the hot loop records observations carrying their pair ids and
// bumps round counters. The timed region is ingest + the round-boundary
// flush (threads are spawned and parked on a latch beforehand), so the
// sharded numbers include the merge cost they defer to the epoch
// boundary.
//
// This is the before/after evidence for the sharded results layer: the
// mutex backend takes its locks for every record and count, the sharded
// backend touches no shared state until flush.
//
// BM_FlushAfterRounds times the round-boundary flush alone, on a shard
// that has seen 41 (paper) or 1500 (multi_vp) rounds.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/results.h"
#include "core/sink.h"

namespace {

using namespace v6mon;

constexpr std::uint32_t kRowsPerThread = 20000;
constexpr std::size_t kPathPool = 200;

/// Plausible route pairs over AS paths of 2-5 hops, interned into
/// `source` — mirrors a campaign, where a few hundred distinct pairs
/// cover almost all observations of a vantage point.
std::vector<core::PairId> pair_pool(core::PathRegistry& source) {
  std::vector<core::RouteId> routes;
  routes.reserve(kPathPool);
  for (std::size_t p = 0; p < kPathPool; ++p) {
    std::vector<topo::Asn> path;
    const std::size_t hops = 2 + p % 4;
    for (std::size_t h = 0; h < hops; ++h) {
      path.push_back(static_cast<topo::Asn>(1 + (p * 131 + h * 17) % 5000));
    }
    routes.push_back(source.intern_route(path.back(), path));
  }
  std::vector<core::PairId> pairs;
  pairs.reserve(routes.size());
  for (std::size_t p = 0; p < routes.size(); ++p) {
    pairs.push_back(source.intern_pair(routes[p], routes[(p + 1) % routes.size()]));
  }
  return pairs;
}

void ingest_rows(core::ObservationSink& sink, const std::vector<core::PairId>& ids,
                 int tid) {
  core::ObservationSink::Lane& lane = sink.lane();
  core::Observation o;
  o.status = core::MonitorStatus::kMeasured;
  o.v4_speed_kBps = 120.0f;
  o.v6_speed_kBps = 95.0f;
  o.v4_samples = 5;
  o.v6_samples = 5;
  std::size_t p = static_cast<std::size_t>(tid) % ids.size();
  std::uint16_t round = 0;
  const std::uint32_t base = static_cast<std::uint32_t>(tid) * kRowsPerThread;
  for (std::uint32_t i = 0; i < kRowsPerThread; ++i) {
    o.site = base + i;
    o.round = round;
    o.route_pair = ids[p];
    lane.record(o);
    lane.count(round, o.status);
    if (++round == 30) round = 0;
    if (++p == ids.size()) p = 0;
  }
}

template <typename Sink>
void bm_ingest(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto source = std::make_shared<core::PathRegistry>();
  const std::vector<core::PairId> pool = pair_pool(*source);
  for (auto _ : state) {
    core::ResultsDb db(source);
    Sink sink(db);
    // Spawn and park the workers outside the timed region: the metric
    // is ingest throughput, not pthread_create.
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&sink, &pool, &go, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        ingest_rows(sink, pool, t);
      });
    }
    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    sink.finish();
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * threads * kRowsPerThread);
  state.counters["threads"] = threads;
}

void BM_IngestMutex(benchmark::State& state) {
  bm_ingest<core::MutexSink>(state);
}
BENCHMARK(BM_IngestMutex)->Arg(1)->Arg(8)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_IngestSharded(benchmark::State& state) {
  bm_ingest<core::ShardedSink>(state);
}
BENCHMARK(BM_IngestSharded)->Arg(1)->Arg(8)->UseManualTime()->Unit(benchmark::kMillisecond);

/// One-round ingest epochs on a sharded sink whose shard has already
/// counted round R − 1: record one row, count it, flush. A flush merges
/// and zeroes only the rounds its epoch counted, so the time per flush
/// should not grow with R (a campaign with R rounds flushes once per
/// (VP, round), each touching one round). The iteration count is fixed
/// because every flushed row stays in the store.
void BM_FlushAfterRounds(benchmark::State& state) {
  const auto rounds = static_cast<std::uint32_t>(state.range(0));
  core::ResultsDb db;
  core::ShardedSink sink(db);
  core::ObservationSink::Lane& lane = sink.lane();
  lane.count(rounds - 1, core::MonitorStatus::kV4Only);
  sink.flush();
  core::Observation o;
  o.status = core::MonitorStatus::kMeasured;
  o.v4_speed_kBps = 120.0f;
  o.v6_speed_kBps = 95.0f;
  std::uint32_t epoch = 0;
  for (auto _ : state) {
    o.site = epoch;
    o.round = static_cast<std::uint16_t>(epoch % rounds);
    lane.record(o);
    lane.count(o.round, o.status);
    sink.flush();
    ++epoch;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_FlushAfterRounds)->Arg(41)->Arg(1500)->Iterations(50000)->Unit(benchmark::kNanosecond);

}  // namespace

BENCHMARK_MAIN();
