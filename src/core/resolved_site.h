#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bgp/rib.h"
#include "core/results.h"
#include "ip/ipv4.h"
#include "ip/ipv6.h"
#include "transport/path.h"
#include "web/site.h"

namespace v6mon::core {

/// The hosting epoch of a site at a round: 0 = original hosting, 1 =
/// relocated hosting of a `step_from_path_change` site at/after its step
/// round. Mirrors SiteCatalog::hosting_at exactly — everything the
/// measurement pipeline derives from addresses is constant within an
/// epoch, which is what makes campaign-lifetime caching sound.
[[nodiscard]] inline std::uint8_t hosting_epoch(const web::Site& s,
                                                std::uint32_t round) {
  return (s.step_round != web::kNever && s.step_from_path_change &&
          round >= s.step_round)
             ? 1
             : 0;
}

/// One site's resolved phase-2 state, as computed by Monitor. Used as the
/// fill/fallback exchange format; the table scatters it into columns.
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

/// Struct-of-arrays cache of per-(vantage, site) measurement state that is
/// a pure function of the immutable world: addresses, RIB routes,
/// characterized + 6to4-adjusted path properties, page sizes, server-rate
/// bases and the phase-2 gate verdict (ISSUE 7). Rows are write-once,
/// keyed by (site, hosting epoch); materialized on first use and reused
/// for every later round, so only DNS draws and download sampling remain
/// per-round work.
///
/// Concurrency protocol (no internal locks, mirroring the RIB-build
/// pattern): slot assignment (column growth) is coordinator-only —
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

  /// Slot of (site, epoch), or kNoSlot. Lock-free read.
  [[nodiscard]] std::uint32_t find(std::uint32_t site_id, std::uint8_t epoch) const {
    const std::size_t key = static_cast<std::size_t>(site_id) * 2 + epoch;
    return key < slot_of_.size() ? slot_of_[key] : kNoSlot;
  }

  /// Coordinator-only: create an (unfilled) slot for (site, epoch). The
  /// site-independent columns (pages, rates, hostname) are populated here;
  /// the resolved row arrives via fill(). Requires the slot not to exist.
  std::uint32_t assign(const web::Site& site, std::uint8_t epoch);

  /// Scatter a resolved row into the columns, stamping the world epoch
  /// it was resolved under. Safe to call concurrently for distinct
  /// slots; each slot is filled at most once *per world epoch* — a row
  /// invalidated at an epoch boundary refills through the same path.
  void fill(std::uint32_t slot, const ResolvedSiteRow& row,
            std::uint32_t world_epoch = 0);

  /// Epoch-boundary invalidation (coordinator-only, quiescent): clear
  /// the filled flag so the next round's lazy fill re-resolves the row
  /// against the post-epoch RIB and paths. The cached RibEntry pointers
  /// stay dereferenceable until then (the RIB trie retains value
  /// storage), but no reader sees them: every read is gated on filled().
  void invalidate(std::uint32_t slot);

  /// Re-derive the assign-time site columns (pages, rate base, v6 rate
  /// factor) after the catalog mutated the site — a kSiteGainsAaaa delta
  /// rewrites v6_server_factor on a site whose slot may already exist.
  void refresh_static(std::uint32_t slot, const web::Site& site);

  [[nodiscard]] std::size_t size() const { return site_id_.size(); }
  [[nodiscard]] std::uint32_t site_id(std::uint32_t slot) const { return site_id_[slot]; }
  [[nodiscard]] std::uint8_t epoch(std::uint32_t slot) const { return epoch_[slot]; }
  [[nodiscard]] bool filled(std::uint32_t slot) const { return filled_[slot] != 0; }
  /// World epoch the row was last resolved under (0 = the seed world).
  [[nodiscard]] std::uint32_t world_epoch(std::uint32_t slot) const {
    return world_epoch_[slot];
  }
  [[nodiscard]] const ip::Ipv4Address& v4_addr(std::uint32_t slot) const {
    return v4_addr_[slot];
  }
  [[nodiscard]] const ip::Ipv6Address& v6_addr(std::uint32_t slot) const {
    return v6_addr_[slot];
  }
  [[nodiscard]] MonitorStatus gate(std::uint32_t slot) const { return gate_[slot]; }
  [[nodiscard]] const bgp::RibEntry* v4_route(std::uint32_t slot) const {
    return v4_route_[slot];
  }
  [[nodiscard]] const bgp::RibEntry* v6_route(std::uint32_t slot) const {
    return v6_route_[slot];
  }
  [[nodiscard]] const transport::PathCharacteristics& v4_path(std::uint32_t slot) const {
    return v4_path_[slot];
  }
  [[nodiscard]] const transport::PathCharacteristics& v6_path(std::uint32_t slot) const {
    return v6_path_[slot];
  }
  [[nodiscard]] const std::string& hostname(std::uint32_t slot) const {
    return hostname_[slot];
  }
  [[nodiscard]] double v4_page(std::uint32_t slot) const { return v4_page_[slot]; }
  [[nodiscard]] double v6_page(std::uint32_t slot) const { return v6_page_[slot]; }
  [[nodiscard]] double rate_base(std::uint32_t slot) const { return rate_base_[slot]; }
  [[nodiscard]] double v6_rate_factor(std::uint32_t slot) const {
    return v6_rate_factor_[slot];
  }

 private:
  /// 2 * site_id + epoch -> slot (kNoSlot = unassigned).
  std::vector<std::uint32_t> slot_of_;

  // Parallel columns, indexed by slot.
  std::vector<std::uint32_t> site_id_;
  std::vector<std::uint8_t> epoch_;
  std::vector<std::uint8_t> filled_;
  std::vector<std::uint32_t> world_epoch_;
  std::vector<ip::Ipv4Address> v4_addr_;
  std::vector<ip::Ipv6Address> v6_addr_;
  std::vector<MonitorStatus> gate_;
  std::vector<const bgp::RibEntry*> v4_route_;
  std::vector<const bgp::RibEntry*> v6_route_;
  std::vector<transport::PathCharacteristics> v4_path_;
  std::vector<transport::PathCharacteristics> v6_path_;
  std::vector<std::string> hostname_;
  std::vector<double> v4_page_;
  std::vector<double> v6_page_;
  std::vector<double> rate_base_;
  std::vector<double> v6_rate_factor_;
};

}  // namespace v6mon::core
