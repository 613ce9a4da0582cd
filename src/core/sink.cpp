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
             s.counters_.capacity() * sizeof(RoundCounters) +
             s.path_remap_.capacity() * sizeof(PathId) +
             s.route_remap_.capacity() * sizeof(RouteId) + s.reg_.bytes();
  }
  return total;
}

void ShardedSinkBase::flush() {
  // Coordinator-only by contract; the lock still guards against a late
  // worker's lane() cache miss racing shard creation.
  util::LockGuard lock(shards_mu_);
  PathRegistry& target = canonical_paths();
  for (Shard& s : shards_) {
    // Canonicalize path and route ids minted since the last flush. The
    // remaps are append-only prefix maps, so each shard-local id crosses
    // the canonicalization boundary exactly once over the campaign.
    const std::size_t paths = s.reg_.size();
    for (std::size_t local = s.path_remap_.size(); local < paths; ++local) {
      s.path_remap_.push_back(target.intern(s.reg_.path(static_cast<PathId>(local))));
    }
    const std::size_t routes = s.reg_.route_count();
    for (std::size_t local = s.route_remap_.size(); local < routes; ++local) {
      const Route r = s.reg_.route(static_cast<RouteId>(local));
      s.route_remap_.push_back(
          target.intern_route(r.origin, r.path == kNoPath ? kNoPath : s.path_remap_[r.path]));
    }
    for (Observation& o : s.staged_) {
      if (o.v4_route != kNoRoute) {
        V6MON_ASSERT(o.v4_route < s.route_remap_.size(), "unregistered v4 route id");
        o.v4_route = s.route_remap_[o.v4_route];
      }
      if (o.v6_route != kNoRoute) {
        V6MON_ASSERT(o.v6_route < s.route_remap_.size(), "unregistered v6 route id");
        o.v6_route = s.route_remap_[o.v6_route];
      }
    }
    merge_batch(s.staged_, s.lo_, s.counters_);
    // Keep the capacities: the next epoch refills both.
    s.staged_.clear();
    s.counters_.clear();
  }
}

}  // namespace v6mon::core
