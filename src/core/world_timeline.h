#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/world.h"
#include "core/world_delta.h"

namespace v6mon::core {

/// Epoch 0 (a fully built World) plus an ordered stream of epoch deltas:
/// the evolving world the campaign runs against. The timeline owns the
/// world; `advance_to(round)` applies every pending epoch whose round
/// has arrived — mutating the graph/catalog, then running the world
/// build's route pass (core::sync_vp_routes) over the tracked IPv6
/// destinations, which rewrites the vantage-point RIB rows that disagree
/// with the new routes — and returns one WorldChangeSummary per epoch
/// for the monitors' cache invalidation. No route table outlives the epoch that computed it.
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
  /// epoch 0 itself). `build_threads` fans out the per-epoch route
  /// rebuild (0 = hardware concurrency); results are bit-identical for
  /// every value.
  explicit WorldTimeline(World world, std::vector<EpochDeltas> epochs = {},
                         std::size_t build_threads = 0);

  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] const World& world() const { return world_; }

  [[nodiscard]] bool empty() const { return epochs_.empty(); }
  [[nodiscard]] std::size_t num_epochs() const { return epochs_.size(); }
  /// The whole delta stream, applied or not, in epoch order.
  [[nodiscard]] const std::vector<EpochDeltas>& epochs() const { return epochs_; }
  /// Epochs applied so far (0 = still the seed world).
  [[nodiscard]] std::uint32_t current_epoch() const { return applied_; }
  /// Round of the next pending epoch, if any.
  [[nodiscard]] std::optional<std::uint32_t> next_epoch_round() const;
  /// Rounds of every still-pending epoch, strictly ascending (the
  /// constructor enforces the order). Campaign::run ends one epoch
  /// segment at each entry.
  [[nodiscard]] std::vector<std::uint32_t> pending_epoch_rounds() const;

  /// Apply every pending epoch with round <= `round`, in order. Returns
  /// one summary per epoch applied (usually 0 or 1 per campaign round).
  std::vector<WorldChangeSummary> advance_to(std::uint32_t round);

  /// Per-applied-epoch work accounting, in application order.
  [[nodiscard]] const std::vector<EpochStats>& epoch_stats() const { return stats_; }

 private:
  WorldChangeSummary apply_epoch(const EpochDeltas& epoch);

  World world_;
  std::vector<EpochDeltas> epochs_;
  std::size_t next_pending_ = 0;
  std::uint32_t applied_ = 0;
  std::size_t build_threads_ = 0;

  /// Destinations whose vantage-point rows every epoch keeps right:
  /// site-hosting v6 ASes, tunnel relays, and every AS the delta stream
  /// names. Collected on the first advance, so an empty timeline costs
  /// nothing; ascending.
  std::vector<topo::Asn> tracked_;
  std::vector<EpochStats> stats_;
};

}  // namespace v6mon::core
