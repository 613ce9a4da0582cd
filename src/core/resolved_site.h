#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bgp/rib.h"
#include "core/results.h"
#include "topo/as_graph.h"
#include "transport/path.h"
#include "util/contracts.h"

namespace v6mon::core {

/// A row's 6to4 island when its IPv6 address is not a 6to4 address.
inline constexpr topo::Asn kNotSixToFour = topo::kNoAs;
/// A row's 6to4 island when the embedded IPv4 address has no origin AS.
inline constexpr topo::Asn kNoIsland = topo::kNoAs - 1;

/// One route pair's resolved phase-2 state: everything monitor_site's
/// phase 2 derives from a site's answers is a function of the pair's key
/// — the RIB routes of the two addresses and the 6to4 island — so sites
/// with equal keys share one row. A row keeps no addresses.
struct ResolvedSiteRow {
  /// The key: the routes (null = no route) and `island`.
  const bgp::RibEntry* v4_route = nullptr;
  const bgp::RibEntry* v6_route = nullptr;
  /// Characterized paths, with the 6to4 hidden-leg adjustment already
  /// applied to the v6 side.
  transport::PathCharacteristics v4_path;
  transport::PathCharacteristics v6_path;
  /// The origin AS of a 6to4 address's embedded IPv4 address, or
  /// kNotSixToFour / kNoIsland. Placed here, it packs with the fields below.
  topo::Asn island = kNotSixToFour;
  /// The pair id of the two routes in the owning Monitor's registry.
  PairId route_pair = kNoPair;
  /// World epoch the row was resolved under (0 = the seed world).
  std::uint32_t world_epoch = 0;
  /// The pipeline's phase-2 verdict given both DNS answers exist:
  /// kMeasured = proceed to the download phases, otherwise the terminal
  /// status (null route, no 6to4 relay, invalid path), with the original
  /// check precedence preserved.
  MonitorStatus gate = MonitorStatus::kMeasured;

  [[nodiscard]] bool same_key(const ResolvedSiteRow& o) const {
    return v4_route == o.v4_route && v6_route == o.v6_route && island == o.island;
  }
};
static_assert(sizeof(ResolvedSiteRow) == 112, "a row is two routes, two paths and 16 bytes");

/// One vantage point's phase-2 rows, one per key, behind a dense index
/// keyed by `2 * v6_record + hosting epoch` (web::Site::v6_record,
/// web::SiteCatalog::hosting_epoch): every site that reaches phase 2 is
/// dual-stack and so has an IPv6 presence record, and records cover about
/// 1% of the catalog. Rows, keys and index entries change only on the
/// owning vantage point's coordinator (Monitor::resolve_sites before a
/// round's fan-out, Monitor::on_world_change between rounds); workers only
/// read, and the fan-out's start and join publish every change.
class ResolvedSiteTable {
 public:
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  /// Give records [0, v6_records) index entries; never shrinks.
  void cover(std::size_t v6_records);

  /// Row of (IPv6 record, hosting epoch), or kNoRow (including records
  /// the index does not cover). Lock-free read.
  [[nodiscard]] std::uint32_t find(std::uint32_t v6_record, std::uint8_t epoch) const {
    V6MON_ASSERT(epoch <= 1, "hosting epoch must be 0 or 1");
    const std::size_t at = std::size_t{v6_record} * 2 + epoch;
    const std::uint32_t id = at < index_.size() ? index_[at] : kNoRow;
    return id == kPurged ? kNoRow : id;
  }
  /// Row with `key`'s key (routes and island), or kNoRow.
  [[nodiscard]] std::uint32_t find_row(const ResolvedSiteRow& key) const;

  /// Coordinator-only: append `row`, whose key must be new; returns its id.
  std::uint32_t add(const ResolvedSiteRow& row);
  /// Coordinator-only: point the unset entry (IPv6 record, hosting
  /// epoch) at `row`. Returns whether the entry was never set before
  /// (purge resets entries).
  bool assign(std::uint32_t v6_record, std::uint8_t epoch, std::uint32_t row);

  /// Coordinator-only, quiescent: drop every row `stale` marks, with its
  /// key and the index entries that point at it, so the next resolution
  /// of those entries characterizes afresh. Surviving rows keep their
  /// order and may take new ids. Returns the rows dropped.
  std::size_t purge(const std::vector<bool>& stale);

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] const ResolvedSiteRow& row(std::uint32_t id) const { return rows_[id]; }
  /// Index entries (two per covered IPv6 record).
  [[nodiscard]] std::size_t index_size() const { return index_.size(); }
  /// Bytes of the rows, the index and the key map, by capacity.
  [[nodiscard]] std::size_t bytes() const {
    return rows_.capacity() * sizeof(ResolvedSiteRow) +
           (index_.capacity() + buckets_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  /// An index entry purge reset: unset, but set before.
  static constexpr std::uint32_t kPurged = kNoRow - 1;

  [[nodiscard]] std::size_t home_bucket(const ResolvedSiteRow& key) const;
  /// Rebuild the key map over every row with `buckets` buckets.
  void rehash(std::size_t buckets);
  void insert_key(std::uint32_t id);

  std::vector<ResolvedSiteRow> rows_;
  /// 2 * v6_record + hosting epoch -> row id, kNoRow or kPurged.
  std::vector<std::uint32_t> index_;
  /// The key map: open addressing with linear probing over row ids
  /// (kNoRow = empty), a power of two at most half full.
  std::vector<std::uint32_t> buckets_;
};

}  // namespace v6mon::core
