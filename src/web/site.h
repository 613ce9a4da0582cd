#pragma once

#include <cstdint>

#include "ip/ipv4.h"
#include "topo/as_graph.h"

namespace v6mon::web {

/// Sentinel for "never happens" round fields.
inline constexpr std::uint32_t kNever = 0xffffffffu;

/// Sentinel for Site::v6_record: the site has no IPv6 presence record.
inline constexpr std::uint32_t kNoV6Record = 0xffffffffu;

/// Sentinel for Site::dynamics: the site has no non-stationarity record.
inline constexpr std::uint32_t kNoDynamics = 0xffffffffu;

/// One monitored website. Deliberately compact: catalogs hold up to a
/// million of these, so a site keeps only what every site has. Its rank,
/// first listed round and DNS-cache membership follow from its id (the
/// catalog's listing runs); its IPv6 presence and AAAA window (~1% of
/// sites) and its step or trend (~11%) live in record vectors the catalog
/// owns. Ask SiteCatalog about a site: its accessors answer a site
/// without a record with the defaults a record would hold.
struct Site {
  std::uint32_t id = 0;
  topo::Asn v4_as = topo::kNoAs;  ///< AS hosting the IPv4 presence.
  ip::Ipv4Address v4_addr;
  float page_kb = 30.0f;          ///< Main page size over IPv4.
  float server_rate_kBps = 90.0f; ///< Server-side delivery capacity (IPv4).
  /// Index of the site's IPv6 presence record in its catalog, or
  /// kNoV6Record. Set iff the site has an AAAA window.
  std::uint32_t v6_record = kNoV6Record;
  /// Index of the site's Dynamics record in its catalog, or kNoDynamics.
  /// Set iff the site has a step or a trend.
  std::uint32_t dynamics = kNoDynamics;
};

// A scale-1.0 catalog holds 330,000 sites, so every byte here costs 330 KB.
static_assert(sizeof(Site) == 28, "web::Site grew: check its field order for padding");

/// A site's non-stationarity injections (they feed the paper's Table 3
/// sanitization). A site without a record reads as this default: no
/// step, no trend.
struct Dynamics {
  std::uint32_t step_round = kNever;  ///< Sharp perf transition at this round...
  float step_factor = 1.0f;           ///< ...multiplying server rate thereafter.
  float trend_per_round = 0.0f;       ///< Steady relative drift per round.
  /// The transition coincides with a path change: the site relocates at
  /// step_round (SiteCatalog::hosting_at).
  bool step_from_path_change = false;
};

static_assert(sizeof(Dynamics) == 16, "web::Dynamics grew: check its field order for padding");

}  // namespace v6mon::web
