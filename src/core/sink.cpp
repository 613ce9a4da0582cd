#include "core/sink.h"

#include <atomic>
#include <cstddef>

#include "util/contracts.h"

namespace v6mon::core {

namespace {

/// Per-thread lane lookup, keyed by a process-unique sink id (never by
/// pointer: a destroyed sink's address can be reused by a later one,
/// and a stale pointer hit would hand a worker someone else's shard).
/// A fixed-size ring bounds the cache; eviction only costs a re-lookup
/// of the thread's shard under the sink's mutex, never another shard.
struct LaneSlot {
  std::uint64_t sink_id = 0;  ///< 0 = empty (ids start at 1).
  ObservationSink::Lane* lane = nullptr;
};
constexpr std::size_t kLaneCacheSize = 16;
// V6MON_LINT_ALLOW(D004): per-thread shard-lookup memo keyed by process-unique
// sink id; pure cache — a miss re-derives the lane, output never sees it
thread_local LaneSlot tl_lanes[kLaneCacheSize];
// V6MON_LINT_ALLOW(D004): eviction cursor for the cache above; same argument
thread_local std::size_t tl_lane_evict = 0;

std::uint64_t next_sink_id() {
  // V6MON_LINT_ALLOW(D004): monotonic id source; ids key caches, never output
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ShardedSinkBase::ShardedSinkBase() : id_(next_sink_id()) {}

ShardedSinkBase::~ShardedSinkBase() = default;

ShardedSinkBase::Shard& ShardedSinkBase::shard_for_this_thread() {
  const std::thread::id self = std::this_thread::get_id();
  util::LockGuard lock(shards_mu_);
  // A thread that feeds more sinks than the lane cache holds misses here
  // again after an eviction: it must get its own shard back.
  for (Shard& s : shards_) {
    if (s.owner_ == self) return s;
  }
  return shards_.emplace_back(self);
}

ObservationSink::Lane& ShardedSinkBase::lane() {
  for (LaneSlot& slot : tl_lanes) {
    if (slot.sink_id == id_) return *slot.lane;
  }
  Shard& shard = shard_for_this_thread();
  LaneSlot& victim = tl_lanes[tl_lane_evict];
  tl_lane_evict = (tl_lane_evict + 1) % kLaneCacheSize;
  victim = {id_, &shard};
  return shard;
}

std::size_t ShardedSinkBase::shard_count() const {
  util::LockGuard lock(shards_mu_);
  return shards_.size();
}

std::size_t ShardedSinkBase::bytes() const {
  util::LockGuard lock(shards_mu_);
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    total += s.staged_.capacity() * sizeof(Observation) +
             s.counters_.capacity() * sizeof(RoundCounters);
  }
  return total;
}

void ShardedSinkBase::flush() {
  // Coordinator-only by contract; the lock still guards against a late
  // worker's lane() cache miss racing shard creation.
  util::LockGuard lock(shards_mu_);
  // The first shard that counted anything collects every other shard's
  // deltas in its own window.
  Shard* total = nullptr;
  for (Shard& s : shards_) {
    merge_rows(s.staged_);
    // Keep the capacities: the next epoch refills both.
    s.staged_.clear();
    if (s.counters_.empty()) continue;
    if (total == nullptr) {
      total = &s;
      continue;
    }
    for (std::uint32_t i = 0; i < s.counters_.size(); ++i) {
      total->touch(s.lo_ + i) += s.counters_[i];
    }
    s.counters_.clear();
  }
  if (total != nullptr) {
    merge_counters(total->lo_, total->counters_);
    total->counters_.clear();
  }
}

}  // namespace v6mon::core
