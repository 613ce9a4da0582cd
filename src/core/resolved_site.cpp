#include "core/resolved_site.h"

#include "util/contracts.h"

namespace v6mon::core {

ResolvedSiteTable::ResolvedSiteTable(std::size_t catalog_sites) {
  slot_of_.assign(catalog_sites * 2, kNoSlot);
}

std::uint32_t ResolvedSiteTable::assign(const web::Site& site, std::uint8_t epoch) {
  V6MON_REQUIRE(epoch <= 1, "hosting epoch must be 0 or 1");
  const std::size_t key = static_cast<std::size_t>(site.id) * 2 + epoch;
  V6MON_REQUIRE(key < slot_of_.size(), "site id beyond the catalog the table was sized for");
  V6MON_REQUIRE(slot_of_[key] == kNoSlot, "slot already assigned");
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  Slot& s = slots_.emplace_back();
  s.site_id = site.id;
  slot_of_[key] = slot;
  return slot;
}

void ResolvedSiteTable::fill(std::uint32_t slot, const ResolvedSiteRow& row,
                             std::uint32_t world_epoch) {
  V6MON_REQUIRE(slot < slots_.size(), "fill of an unassigned slot");
  Slot& s = slots_[slot];
  V6MON_ASSERT(!s.filled, "slot filled twice");
  s.row = row;
  s.world_epoch = world_epoch;
  s.filled = true;
}

void ResolvedSiteTable::invalidate(std::uint32_t slot) {
  V6MON_REQUIRE(slot < slots_.size(), "invalidate of an unassigned slot");
  slots_[slot].filled = false;
}

}  // namespace v6mon::core
