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
/// Observations carry pair ids of their vantage point's registry
/// (Monitor::routes()), which the VP's stores read as well: no sink
/// translates ids.
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

    /// Record one observation.
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
  /// its per-worker staging state (coordinator-only). Zero for a sink
  /// that stages nothing.
  [[nodiscard]] virtual std::size_t bytes() const { return 0; }
};

/// Baseline backend: every lane call goes straight to the ResultsDb
/// behind its global mutex — the pre-sharding behaviour, kept as the
/// reference implementation and the `bench_results` comparison point.
class MutexSink final : public ObservationSink {
 public:
  explicit MutexSink(ResultsDb& db) : lane_(db) {}

  [[nodiscard]] Lane& lane() override { return lane_; }
  void count_listed(std::uint32_t round, std::uint64_t n) override {
    lane_.db().count_listed(round, n);
  }
  void flush() override {}  // nothing staged: writes were direct

 private:
  class DbLane final : public Lane {
   public:
    explicit DbLane(ResultsDb& db) : db_(&db) {}
    void record(const Observation& obs) override { db_->add(obs); }
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
  };
  DbLane lane_;
};

/// Sharded ingest machinery shared by the in-memory sharded backend and
/// the spool writer: each worker thread gets a private shard
/// (observation buffer + round counters), so the record/count hot path
/// touches no shared state at all — no mutex, no atomic. `flush()` walks
/// the shards on the coordinator, hands each shard's rows to
/// `merge_rows()`, and sums the shards' counter windows into one delta
/// per touched round for one `merge_counters()` call.
///
/// Determinism: within one ingest epoch a site is monitored at most
/// once, so per-site observation order is epoch order regardless of
/// which shard a row landed in, and ResultsDb::finalize() stable-sorts
/// rows by (site, round) — every downstream byte is invariant to thread
/// count and to shard arrival order. The counter deltas are sums over
/// the shards, so they do not depend on how many shards there are.
class ShardedSinkBase : public ObservationSink {
 public:
  ~ShardedSinkBase() override;

  [[nodiscard]] Lane& lane() final;
  void flush() final;
  /// Capacities of every shard's staged rows and counter window.
  [[nodiscard]] std::size_t bytes() const final;

  /// Number of shards materialized so far (== distinct ingest threads).
  [[nodiscard]] std::size_t shard_count() const;

 protected:
  ShardedSinkBase();

  /// Receive one shard's rows. Only borrowed: the shard clears and
  /// reuses its buffer after the call.
  virtual void merge_rows(std::span<const Observation> rows) = 0;
  /// Receive the flush's counter deltas, after every shard's rows:
  /// `deltas[i]` is round `first_round + i`'s sum over the shards since
  /// the previous flush, over the range of rounds their count/count_n
  /// calls touched (rounds inside the range can still be all-zero, and
  /// merge treats those as no-ops). Not called when no shard counted.
  /// Only borrowed.
  virtual void merge_counters(std::uint32_t first_round,
                              std::span<const RoundCounters> deltas) = 0;

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
    /// sums it into the first counting shard's window, merges that and
    /// clears both, keeping the capacity.
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
};

/// In-memory sharded backend: flush bulk-merges each shard's rows and
/// then the summed counter deltas (one store lock each, instead of one
/// per observation).
class ShardedSink final : public ShardedSinkBase {
 public:
  explicit ShardedSink(ResultsDb& db) : db_(&db) {}

  void count_listed(std::uint32_t round, std::uint64_t n) override {
    db_->count_listed(round, n);
  }

 protected:
  void merge_rows(std::span<const Observation> rows) override { db_->merge_rows(rows); }
  void merge_counters(std::uint32_t first_round,
                      std::span<const RoundCounters> deltas) override {
    db_->merge_counters(first_round, deltas);
  }

 private:
  ResultsDb* db_;
};

}  // namespace v6mon::core
