#pragma once

#include <cmath>
#include <cstdint>

#include "ip/ipv4.h"
#include "topo/as_graph.h"

namespace v6mon::web {

/// Sentinel for "never happens" round fields.
inline constexpr std::uint32_t kNever = 0xffffffffu;

/// Sentinel for Site::v6_record: the site has no IPv6 presence record.
inline constexpr std::uint32_t kNoV6Record = 0xffffffffu;

/// One monitored website. Deliberately compact: catalogs hold up to a
/// million of these. The IPv6 presence (hosting AS, address, page and
/// server factors) of the ~1% of sites that ever get an AAAA record lives
/// in the catalog's record vector; read it through SiteCatalog::v6_presence.
struct Site {
  std::uint32_t id = 0;
  /// 1-based Alexa-style rank; 0 for unranked supplemental sites (the
  /// paper's ~5M-site DNS-cache sample).
  std::uint32_t rank = 0;

  topo::Asn v4_as = topo::kNoAs;  ///< AS hosting the IPv4 presence.
  ip::Ipv4Address v4_addr;

  /// First round at which the AAAA record exists; kNever = IPv4-only.
  std::uint32_t v6_from_round = kNever;
  /// First round at which the AAAA record is gone again (exclusive);
  /// kNever = permanent. World IPv6 Day participants that did not keep
  /// IPv6 after the event have a one-round window here.
  std::uint32_t v6_until_round = kNever;
  /// Round the site first appeared in the monitored list (churn).
  std::uint32_t first_seen_round = 0;

  float page_kb = 30.0f;          ///< Main page size over IPv4.
  float server_rate_kBps = 90.0f; ///< Server-side delivery capacity (IPv4).

  /// Non-stationarity injections (feed the paper's Table 3 sanitization):
  std::uint32_t step_round = kNever;  ///< Sharp perf transition at this round...
  float step_factor = 1.0f;           ///< ...multiplying server rate thereafter.
  float trend_per_round = 0.0f;       ///< Steady relative drift per round.

  /// Index of the site's IPv6 presence record in its catalog, or
  /// kNoV6Record. Set iff v6_from_round != kNever.
  std::uint32_t v6_record = kNoV6Record;

  bool step_from_path_change = false; ///< Transition coincides with a path change.
  bool w6d_participant = false;  ///< Advertised World IPv6 Day participation.
  bool from_dns_cache = false;   ///< Supplemental (unranked) sample member.

  [[nodiscard]] bool in_list_at(std::uint32_t round) const {
    return round >= first_seen_round;
  }
  [[nodiscard]] bool dual_stack_at(std::uint32_t round) const {
    return v6_from_round != kNever && round >= v6_from_round &&
           round < v6_until_round;
  }
  /// Hosting epoch at a round: 0 = original hosting, 1 = the relocated
  /// hosting of a `step_from_path_change` site at/after its step round.
  /// A site's addresses are constant within a hosting epoch, so the
  /// monitor's resolved-site rows are keyed on it.
  [[nodiscard]] std::uint8_t hosting_epoch(std::uint32_t round) const {
    const bool relocated =
        step_round != kNever && step_from_path_change && round >= step_round;
    return relocated ? 1 : 0;
  }

  /// Server performance multiplier at a given round: non-stationarity only.
  [[nodiscard]] double server_multiplier_at(std::uint32_t round) const {
    double m = 1.0;
    if (step_round != kNever && round >= step_round) m *= step_factor;
    if (trend_per_round != 0.0f && round > first_seen_round) {
      m *= std::pow(1.0 + static_cast<double>(trend_per_round),
                    static_cast<double>(round - first_seen_round));
    }
    return m;
  }
};

// The three flags share the tail word: a scale-1.0 catalog holds 330,000
// sites, so every padding byte costs 330 KB.
static_assert(sizeof(Site) == 56, "web::Site grew: check its field order for padding");

}  // namespace v6mon::web
