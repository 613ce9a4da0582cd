#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bgp/rib.h"
#include "core/results.h"
#include "ip/ipv4.h"
#include "ip/ipv6.h"
#include "transport/path.h"
#include "util/contracts.h"
#include "web/site.h"

namespace v6mon::core {

/// One site's resolved phase-2 state, as computed by Monitor: the table
/// row, and the per-call row monitor_site resolves into when no table
/// row applies.
struct ResolvedSiteRow {
  ip::Ipv4Address v4_addr;
  ip::Ipv6Address v6_addr;
  /// The pipeline's phase-2 verdict given both DNS answers exist:
  /// kMeasured = proceed to the download phases, otherwise the terminal
  /// status (null route, no 6to4 relay, invalid path), with the original
  /// check precedence preserved.
  MonitorStatus gate = MonitorStatus::kMeasured;
  const bgp::RibEntry* v4_route = nullptr;
  const bgp::RibEntry* v6_route = nullptr;
  /// Characterized paths, with the 6to4 hidden-leg adjustment already
  /// applied to the v6 side.
  transport::PathCharacteristics v4_path;
  transport::PathCharacteristics v6_path;
};

/// Cache of per-(vantage, site) phase-2 state that is a pure function of
/// the world at a world epoch: addresses, RIB routes, characterized +
/// 6to4-adjusted paths and the phase-2 gate verdict. One row per
/// slot, keyed by (site, hosting epoch — web::SiteCatalog::hosting_epoch);
/// materialized on first use and reused for every later round, so only DNS
/// draws and download sampling remain per-round work. Page sizes and
/// server rates are not cached: monitor_site reads them from the live
/// catalog entry.
///
/// The index holds assigned keys only, so a table's memory follows the
/// sites that reached phase 2 (the dual-stack ones), not the catalog.
///
/// Concurrency protocol (no internal locks, mirroring the RIB-build
/// pattern): slot assignment (index and vector growth) is coordinator-only —
/// Campaign serializes it under the vantage point's ingest-epoch mutex —
/// then fills happen lazily inside monitor_site. A site appears at most
/// once per work list, so each slot is written by exactly one worker per
/// epoch (slots are *disjoint* across workers), and the epoch's join
/// barrier publishes the rows to every later round.
///
/// Cross-VP confinement (ISSUE 10): each table is owned by one VP's
/// Monitor and only reached through it; the campaign runs that VP's
/// rounds as one chain on one thread, so overlapping *other* VPs'
/// rounds never touch this table — the protocol above is unchanged by
/// cross-VP concurrency. The w6d path keeps it true by taking
/// the regular store's epoch mutex inside the w6d store's
/// (run_w6d_for_vp), so a VP's W6D mini-rounds and its regular rounds
/// cannot interleave table growth either.
class ResolvedSiteTable {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  ResolvedSiteTable() = default;
  explicit ResolvedSiteTable(std::size_t catalog_sites);

  /// Slot of (site, hosting epoch), or kNoSlot. Lock-free read.
  [[nodiscard]] std::uint32_t find(std::uint32_t site_id, std::uint8_t epoch) const {
    V6MON_ASSERT(epoch <= 1, "hosting epoch must be 0 or 1");
    const auto it = slot_of_.find(std::uint64_t{site_id} * 2 + epoch);
    return it == slot_of_.end() ? kNoSlot : it->second;
  }

  /// Coordinator-only: create an unfilled slot for (site, hosting epoch);
  /// the resolved row arrives via fill().
  /// Requires the slot not to exist.
  std::uint32_t assign(const web::Site& site, std::uint8_t epoch);

  /// Store a resolved row and its routes' pair id (of the owning
  /// Monitor's registry), stamping the world epoch it was resolved under.
  /// Safe to call concurrently for distinct slots; each slot is filled at
  /// most once *per world epoch* — a row invalidated at an epoch boundary
  /// refills through the same path.
  void fill(std::uint32_t slot, const ResolvedSiteRow& row, PairId route_pair,
            std::uint32_t world_epoch);

  /// Epoch-boundary invalidation (coordinator-only, quiescent): clear
  /// the filled flag so the next round's lazy fill re-resolves the row
  /// against the post-epoch RIB and paths. The cached RibEntry pointers
  /// stay dereferenceable until then (the RIB trie retains value
  /// storage), but no reader sees them: every read is gated on filled().
  void invalidate(std::uint32_t slot);

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  /// Bytes of the slots and index entries, by size (not capacity; hash
  /// buckets are not counted).
  [[nodiscard]] std::size_t bytes() const {
    return slots_.size() * sizeof(Slot) + slot_of_.size() * sizeof(decltype(slot_of_)::value_type);
  }
  [[nodiscard]] const ResolvedSiteRow& row(std::uint32_t slot) const {
    return slots_[slot].row;
  }
  /// The pair id of the row's two routes.
  [[nodiscard]] PairId route_pair(std::uint32_t slot) const {
    return slots_[slot].route_pair;
  }
  [[nodiscard]] std::uint32_t site_id(std::uint32_t slot) const {
    return slots_[slot].site_id;
  }
  [[nodiscard]] bool filled(std::uint32_t slot) const { return slots_[slot].filled; }
  /// World epoch the row was last resolved under (0 = the seed world).
  [[nodiscard]] std::uint32_t world_epoch(std::uint32_t slot) const {
    return slots_[slot].world_epoch;
  }

 private:
  /// The pair id sits beside the row, in what would be the slot's tail
  /// padding: inside the row it would widen every slot by 8 bytes.
  struct Slot {
    ResolvedSiteRow row;
    std::uint32_t site_id = 0;
    std::uint32_t world_epoch = 0;
    PairId route_pair = kNoPair;
    bool filled = false;
  };

  std::size_t catalog_sites_ = 0;
  /// 2 * site_id + hosting epoch -> slot.
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;
  std::vector<Slot> slots_;
};

}  // namespace v6mon::core
