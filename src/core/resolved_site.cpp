#include "core/resolved_site.h"

#include "util/contracts.h"

namespace v6mon::core {

ResolvedSiteTable::ResolvedSiteTable(std::size_t catalog_sites)
    : catalog_sites_(catalog_sites) {}

std::uint32_t ResolvedSiteTable::assign(const web::Site& site, std::uint8_t epoch) {
  V6MON_REQUIRE(epoch <= 1, "hosting epoch must be 0 or 1");
  V6MON_REQUIRE(site.id < catalog_sites_, "site id beyond the catalog the table was sized for");
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  const bool inserted = slot_of_.emplace(std::uint64_t{site.id} * 2 + epoch, slot).second;
  V6MON_REQUIRE(inserted, "slot already assigned");
  Slot& s = slots_.emplace_back();
  s.site_id = site.id;
  return slot;
}

void ResolvedSiteTable::fill(std::uint32_t slot, const ResolvedSiteRow& row,
                             PairId route_pair, std::uint32_t world_epoch) {
  V6MON_REQUIRE(slot < slots_.size(), "fill of an unassigned slot");
  Slot& s = slots_[slot];
  V6MON_ASSERT(!s.filled, "slot filled twice");
  s.row = row;
  s.route_pair = route_pair;
  s.world_epoch = world_epoch;
  s.filled = true;
}

void ResolvedSiteTable::invalidate(std::uint32_t slot) {
  V6MON_REQUIRE(slot < slots_.size(), "invalidate of an unassigned slot");
  slots_[slot].filled = false;
}

}  // namespace v6mon::core
