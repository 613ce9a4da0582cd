#include "core/resolved_site.h"

#include <algorithm>

namespace v6mon::core {

void ResolvedSiteTable::cover(std::size_t v6_records) {
  if (2 * v6_records > index_.size()) index_.resize(2 * v6_records, kNoRow);
}

std::size_t ResolvedSiteTable::home_bucket(const ResolvedSiteRow& key) const {
  std::uint64_t h = reinterpret_cast<std::uintptr_t>(key.v4_route) * 0x9e3779b97f4a7c15ULL;
  h ^= reinterpret_cast<std::uintptr_t>(key.v6_route) * 0xc2b2ae3d27d4eb4fULL;
  h ^= std::uint64_t{key.island} * 0x165667b19e3779f9ULL;
  return static_cast<std::size_t>(h ^ (h >> 32)) & (buckets_.size() - 1);
}

std::uint32_t ResolvedSiteTable::find_row(const ResolvedSiteRow& key) const {
  if (buckets_.empty()) return kNoRow;
  for (std::size_t b = home_bucket(key);; b = (b + 1) & (buckets_.size() - 1)) {
    const std::uint32_t id = buckets_[b];
    if (id == kNoRow || rows_[id].same_key(key)) return id;
  }
}

void ResolvedSiteTable::insert_key(std::uint32_t id) {
  std::size_t b = home_bucket(rows_[id]);
  while (buckets_[b] != kNoRow) b = (b + 1) & (buckets_.size() - 1);
  buckets_[b] = id;
}

void ResolvedSiteTable::rehash(std::size_t buckets) {
  buckets_.assign(buckets, kNoRow);
  for (std::uint32_t id = 0; id < rows_.size(); ++id) insert_key(id);
}

std::uint32_t ResolvedSiteTable::add(const ResolvedSiteRow& row) {
  V6MON_REQUIRE(rows_.size() < kPurged, "row ids exhausted");
  V6MON_REQUIRE(find_row(row) == kNoRow, "a row with this key exists");
  const auto id = static_cast<std::uint32_t>(rows_.size());
  rows_.push_back(row);
  if (2 * rows_.size() > buckets_.size()) {
    rehash(std::max<std::size_t>(16, 2 * buckets_.size()));
  } else {
    insert_key(id);
  }
  return id;
}

bool ResolvedSiteTable::assign(std::uint32_t v6_record, std::uint8_t epoch,
                               std::uint32_t row) {
  V6MON_REQUIRE(epoch <= 1, "hosting epoch must be 0 or 1");
  V6MON_REQUIRE(std::size_t{v6_record} * 2 < index_.size(),
                "IPv6 record beyond the index");
  V6MON_REQUIRE(row < rows_.size(), "assign of a row that does not exist");
  std::uint32_t& entry = index_[std::size_t{v6_record} * 2 + epoch];
  V6MON_REQUIRE(entry == kNoRow || entry == kPurged, "index entry already set");
  const bool first = entry == kNoRow;
  entry = row;
  return first;
}

std::size_t ResolvedSiteTable::purge(const std::vector<bool>& stale) {
  V6MON_REQUIRE(stale.size() == rows_.size(), "one stale flag per row");
  std::vector<std::uint32_t> new_id(rows_.size(), kPurged);
  std::uint32_t kept = 0;
  for (std::uint32_t id = 0; id < rows_.size(); ++id) {
    if (stale[id]) continue;
    new_id[id] = kept;
    rows_[kept++] = rows_[id];
  }
  const std::size_t dropped = rows_.size() - kept;
  if (dropped == 0) return 0;
  rows_.resize(kept);
  for (std::uint32_t& entry : index_) {
    if (entry < new_id.size()) entry = new_id[entry];
  }
  // Purge before any refill: the RIB replaces entries in place, so a
  // stale key can equal its successor's.
  rehash(buckets_.size());
  return dropped;
}

}  // namespace v6mon::core
