#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <thread>
#include <vector>

#include "core/results.h"
#include "util/thread_annotations.h"

namespace v6mon::core {

/// Where campaign workers write measurement outcomes — the seam between
/// the monitoring pipeline (many threads, hot) and the results store
/// (one sorted row vector per vantage point, read-mostly). The paper's
/// tool poured observations into a per-vantage-point MySQL database;
/// v6mon decouples the same way so the ingest strategy (one mutex,
/// per-worker shards, an out-of-core spool) can change without the
/// monitor or the analysis noticing.
///
/// Observations arrive carrying pair ids of the sink's *source*
/// registry, the vantage point's Monitor::routes(). Each sink keeps one
/// PairRemap from those ids to its store's registry, so a store holds
/// exactly the pairs, routes and paths its own rows use.
///
/// Threading contract:
///  * `lane()` / `Lane` methods may be called concurrently from any
///    number of worker threads during an ingest epoch.
///  * `count_listed()`, `flush()` and `finish()` are coordinator-only:
///    the caller guarantees no Lane traffic is in flight when they run.
///    Campaign serializes ingest epochs per sink to uphold this.
///  * `flush()` marks a round boundary: all worker-local state drains
///    into the backing store in an order with no observable scheduling
///    dependence, so downstream CSVs, counters and tables come out
///    byte-identical at any thread count.
class ObservationSink {
 public:
  /// A single worker's ingest handle. Implementations make the common
  /// path (record/count) free of shared-state locking.
  class Lane {
   public:
    Lane() = default;
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;
    virtual ~Lane() = default;

    /// Record one observation (its pair id is the source registry's).
    virtual void record(const Observation& obs) = 0;
    /// Bucket one monitoring status into the round's counters.
    virtual void count(std::uint32_t round, MonitorStatus status) = 0;
    /// Bucket `n` occurrences at once (the campaign fast path settles
    /// hundreds of thousands of v4-only sites per round; counters are
    /// additive, so one bulk add is byte-identical to n single adds).
    virtual void count_n(std::uint32_t round, MonitorStatus status,
                         std::uint64_t n) = 0;
  };

  ObservationSink() = default;
  ObservationSink(const ObservationSink&) = delete;
  ObservationSink& operator=(const ObservationSink&) = delete;
  virtual ~ObservationSink() = default;

  /// The calling thread's lane. Stable for the thread's lifetime; cheap
  /// after the first call.
  [[nodiscard]] virtual Lane& lane() = 0;

  /// Record the listed-population size for a round (coordinator-only).
  virtual void count_listed(std::uint32_t round, std::uint64_t n) = 0;

  /// Round boundary: drain all lanes into the backing store
  /// (coordinator-only, no concurrent lane traffic).
  virtual void flush() = 0;

  /// End of ingest. After finish() the sink accepts no more traffic;
  /// out-of-core backends close their files here. Default: flush().
  virtual void finish() { flush(); }

  /// Bytes the sink itself holds between flushes: container capacities of
  /// its per-worker staging state and of the pair remap the staging feeds
  /// (coordinator-only). Zero for a sink that stages nothing.
  [[nodiscard]] virtual std::size_t bytes() const { return 0; }
};

/// A source registry's pair ids -> a target registry's, filled lazily:
/// the first row that carries a pair imports it by content
/// (PathRegistry::import_pair), and every later row reads the map. Not
/// synchronized: its sink serializes the calls.
class PairRemap {
 public:
  explicit PairRemap(const PathRegistry& source) : source_(&source) {}

  /// `id`'s pair in `target`, importing it on first sight.
  [[nodiscard]] PairId operator()(PairId id, PathRegistry& target);
  /// Capacity of the map.
  [[nodiscard]] std::size_t bytes() const { return map_.capacity() * sizeof(PairId); }

 private:
  const PathRegistry* source_;
  /// Source pair id -> target pair id; kNoPair until imported.
  std::vector<PairId> map_;
};

/// Baseline backend: every lane call goes straight to the ResultsDb
/// behind its global mutex — the pre-sharding behaviour, kept as the
/// reference implementation and the `bench_results` comparison point.
/// The pair import runs under the sink's own mutex at record time.
class MutexSink final : public ObservationSink {
 public:
  MutexSink(ResultsDb& db, const PathRegistry& source) : lane_(db, source) {}

  [[nodiscard]] Lane& lane() override { return lane_; }
  void count_listed(std::uint32_t round, std::uint64_t n) override {
    lane_.db().count_listed(round, n);
  }
  void flush() override {}  // nothing staged: writes were direct

 private:
  class DbLane final : public Lane {
   public:
    DbLane(ResultsDb& db, const PathRegistry& source) : db_(&db), remap_(source) {}
    void record(const Observation& obs) override {
      Observation row = obs;
      {
        util::LockGuard lock(mu_);
        row.route_pair = remap_(obs.route_pair, db_->paths());
      }
      db_->add(row);
    }
    void count(std::uint32_t round, MonitorStatus status) override {
      db_->count(round, status);
    }
    void count_n(std::uint32_t round, MonitorStatus status,
                 std::uint64_t n) override {
      if (n != 0) db_->count(round, status, n);  // one lock for the batch
    }
    [[nodiscard]] ResultsDb& db() { return *db_; }

   private:
    ResultsDb* db_;
    util::Mutex mu_;
    PairRemap remap_ V6MON_GUARDED_BY(mu_);
  };
  DbLane lane_;
};

/// Sharded ingest machinery shared by the in-memory sharded backend and
/// the spool writer: each worker thread gets a private shard
/// (observation buffer + round counters), so the record/count hot path
/// touches no shared state at all — no mutex, no atomic. `flush()` walks
/// the shards on the coordinator, maps each row's source pair id to a
/// `canonical_paths()` id through the sink's one PairRemap, and hands
/// each batch to `merge_batch()`.
///
/// Determinism: within one ingest epoch a site is monitored at most
/// once, so per-site observation order is epoch order regardless of
/// which shard a row landed in, and ResultsDb::finalize() stable-sorts
/// rows by (site, round) — every downstream byte is invariant to thread
/// count and to shard arrival order. Canonical path, route and pair *ids*
/// do depend on merge order; their *content* (the only registry
/// observable that reaches output) does not.
class ShardedSinkBase : public ObservationSink {
 public:
  ~ShardedSinkBase() override;

  [[nodiscard]] Lane& lane() final;
  void flush() final;
  /// Capacities of every shard's staged rows and counter window, and of
  /// the pair remap.
  [[nodiscard]] std::size_t bytes() const final;

  /// Number of shards materialized so far (== distinct ingest threads).
  [[nodiscard]] std::size_t shard_count() const;

 protected:
  /// `source`: the registry the recorded rows' pair ids belong to.
  explicit ShardedSinkBase(const PathRegistry& source);

  /// The registry flush() imports the rows' pairs into (by content), so
  /// the batches handed to merge_batch() carry its ids.
  [[nodiscard]] virtual PathRegistry& canonical_paths() = 0;
  /// Receive one shard's batch: rows carry canonical pair ids;
  /// `counters[i]` is round `first_round + i`'s delta since the previous
  /// flush, over the range of rounds the shard's count/count_n calls
  /// touched in this epoch (empty when it counted nothing; rounds inside
  /// the range can still be all-zero, and merge treats those as no-ops).
  /// Both spans are only borrowed — the shard clears and reuses its
  /// buffers after the call.
  virtual void merge_batch(std::span<const Observation> rows, std::uint32_t first_round,
                           std::span<const RoundCounters> counters) = 0;

 private:
  class Shard final : public Lane {
   public:
    explicit Shard(std::thread::id owner) : owner_(owner) {}

    void record(const Observation& obs) override { staged_.push_back(obs); }
    void count(std::uint32_t round, MonitorStatus status) override {
      apply_status(touch(round), status);
    }
    void count_n(std::uint32_t round, MonitorStatus status,
                 std::uint64_t n) override {
      if (n != 0) apply_status(touch(round), status, n);
    }

   private:
    friend class ShardedSinkBase;
    /// The round's delta slot, widening the window to cover it: a round
    /// below the window prepends to it, one above appends.
    RoundCounters& touch(std::uint32_t round) {
      if (counters_.empty()) {
        lo_ = round;
      } else if (round < lo_) {
        counters_.insert(counters_.begin(), lo_ - round, RoundCounters{});
        lo_ = round;
      }
      const std::size_t i = round - lo_;
      if (i >= counters_.size()) counters_.resize(i + 1);
      return counters_[i];
    }

    /// The thread this shard's lane belongs to: a lane-cache miss finds
    /// the shard again by it instead of minting another.
    const std::thread::id owner_;
    std::vector<Observation> staged_;
    /// Per-round deltas of the rounds counted since the last flush:
    /// counters_[i] is round lo_ + i's (lo_ is stale while the window is
    /// empty). One ingest epoch counts one round, so the window holds
    /// that epoch's rounds, not every round the shard has seen; a flush
    /// merges it and clears it, keeping the capacity.
    std::vector<RoundCounters> counters_;
    std::uint32_t lo_ = 0;
  };

  Shard& shard_for_this_thread() V6MON_EXCLUDES(shards_mu_);

  const std::uint64_t id_;  ///< Process-unique, keys the thread-local lane cache.
  /// Guards the shard *container* (creation/walk). Shard contents are
  /// lane-private during an epoch and coordinator-owned during flush()
  /// — that handoff is the sink's epoch contract, not a lock.
  mutable util::Mutex shards_mu_;
  std::deque<Shard> shards_ V6MON_GUARDED_BY(shards_mu_);  ///< Deque: addresses stable as shards join.
  /// Source pair id -> canonical_paths() id; used by flush() alone.
  PairRemap remap_ V6MON_GUARDED_BY(shards_mu_);
};

/// In-memory sharded backend: flush imports the rows' pairs into the
/// database's own registry and bulk-merges rows and counter deltas (one
/// lock per shard per round instead of one per observation).
class ShardedSink final : public ShardedSinkBase {
 public:
  ShardedSink(ResultsDb& db, const PathRegistry& source)
      : ShardedSinkBase(source), db_(&db) {}

  void count_listed(std::uint32_t round, std::uint64_t n) override {
    db_->count_listed(round, n);
  }

 protected:
  PathRegistry& canonical_paths() override { return db_->paths(); }
  void merge_batch(std::span<const Observation> rows, std::uint32_t first_round,
                   std::span<const RoundCounters> counters) override {
    db_->merge_rows(rows);
    db_->merge_counters(first_round, counters);
  }

 private:
  ResultsDb* db_;
};

}  // namespace v6mon::core
