#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "bgp/delta.h"
#include "bgp/route_computer.h"
#include "core/world.h"
#include "core/world_delta.h"

namespace v6mon::core {

/// How an epoch advance re-converges the tracked IPv6 route tables.
/// kFullRebuild recomputes every table from scratch — the oracle the
/// incremental path is tested (and benchmarked) against.
enum class EpochAdvanceMode : std::uint8_t { kIncremental, kFullRebuild };

/// Epoch 0 (a fully built World) plus an ordered stream of epoch deltas:
/// the evolving world the campaign runs against. The timeline owns the
/// world; `advance_to(round)` applies every pending epoch whose round
/// has arrived — mutating the graph/catalog, re-converging the affected
/// IPv6 route tables incrementally (bgp::compute_routes_delta over the
/// dirty-AS frontier), and rewriting the vantage-point RIB entries whose
/// routes changed — and returns one WorldChangeSummary per epoch for the
/// monitors' cache invalidation.
///
/// An empty timeline never touches the world: a campaign over it is
/// byte-identical to one over the bare World.
///
/// Not internally synchronized: `advance_to` mutates the world and must
/// run while no measurement is in flight. In a campaign that quiescence
/// is structural: every advance runs on the calling thread between two
/// epoch segments, after all (vp, r < e) rounds have returned and before
/// any (vp, r >= e) round starts, so the advance executes globally
/// exclusive.
/// The read-only accessors (`next_epoch_round`, `pending_epoch_rounds`,
/// `world`, `current_epoch`) are safe to call from concurrently-running
/// measurement chains *between* advances: parallel_index's completion
/// handshake and the next segment's task submission (both mutex-backed)
/// publish each advance's writes, so no reader ever overlaps a writer.
class WorldTimeline {
 public:
  /// `epochs` must have strictly ascending, nonzero rounds (round 0 is
  /// epoch 0 itself). `build_threads` fans out the first-use table build
  /// and per-epoch re-convergence (0 = hardware concurrency); results
  /// are bit-identical for every value.
  explicit WorldTimeline(World world, std::vector<EpochDeltas> epochs = {},
                         std::size_t build_threads = 0);

  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] const World& world() const { return world_; }

  [[nodiscard]] bool empty() const { return epochs_.empty(); }
  [[nodiscard]] std::size_t num_epochs() const { return epochs_.size(); }
  /// Epochs applied so far (0 = still the seed world).
  [[nodiscard]] std::uint32_t current_epoch() const { return applied_; }
  /// Round of the next pending epoch, if any.
  [[nodiscard]] std::optional<std::uint32_t> next_epoch_round() const;
  /// Rounds of every still-pending epoch, strictly ascending (the
  /// constructor enforces the order). Campaign::run ends one epoch
  /// segment at each entry.
  [[nodiscard]] std::vector<std::uint32_t> pending_epoch_rounds() const;

  void set_advance_mode(EpochAdvanceMode mode) { mode_ = mode; }

  /// Apply every pending epoch with round <= `round`, in order. Returns
  /// one summary per epoch applied (usually 0 or 1 per campaign round).
  std::vector<WorldChangeSummary> advance_to(std::uint32_t round);

  /// Per-applied-epoch work accounting, in application order.
  [[nodiscard]] const std::vector<EpochStats>& epoch_stats() const { return stats_; }

  /// The engine's current IPv6 route table toward `dest`, or nullptr
  /// when `dest` is not tracked (exposed for the oracle test and bench).
  [[nodiscard]] const bgp::RouteTable* v6_table(topo::Asn dest) const;
  [[nodiscard]] std::vector<topo::Asn> tracked_dests() const;

 private:
  void ensure_engine();
  WorldChangeSummary apply_epoch(const EpochDeltas& epoch);

  World world_;
  std::vector<EpochDeltas> epochs_;
  std::size_t next_pending_ = 0;
  std::uint32_t applied_ = 0;
  std::size_t build_threads_ = 0;
  EpochAdvanceMode mode_ = EpochAdvanceMode::kIncremental;

  /// Lazily-built incremental state: one compact v6 route table per
  /// tracked destination (site-hosting v6 ASes, tunnel relays, and every
  /// AS the delta stream will ever make a destination). Built on the
  /// first advance, so an empty timeline costs nothing.
  bool engine_ready_ = false;
  std::map<topo::Asn, bgp::RouteTable> v6_tables_;
  std::vector<EpochStats> stats_;
};

}  // namespace v6mon::core
