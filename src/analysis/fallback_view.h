#pragma once

#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/fallback.h"
#include "dns/resolver.h"
#include "util/table.h"

namespace v6mon::analysis {

/// Per-vantage-point user-experience report of a fallback-enabled
/// campaign (ISSUE 9): what share of dual-stack sites the simulated
/// client actually reached, how often IPv4 had to carry the connection,
/// and the latency tax broken IPv6 charged on top of a clean IPv4
/// handshake. The H1/H2 reframing: not "is the v6 path worse" but "what
/// would a user behind this vantage point have felt".
struct FallbackVpReport {
  std::string name;
  core::FallbackPolicy policy = core::FallbackPolicy::kNone;
  core::FallbackStats conn;
  dns::Resolver::Stats dns;

  /// Share of dialed dual-stack sites the user reached (either family).
  [[nodiscard]] double success_rate() const {
    return conn.evaluated == 0 ? 0.0
                               : static_cast<double>(conn.user_success) /
                                     static_cast<double>(conn.evaluated);
  }
  /// Share of dialed sites where IPv4 carried the connection (v6 chain
  /// failed, or lost the race).
  [[nodiscard]] double fallback_rate() const {
    return conn.evaluated == 0 ? 0.0
                               : static_cast<double>(conn.fell_back) /
                                     static_cast<double>(conn.evaluated);
  }
  /// Mean wait beyond a clean one-shot IPv4 handshake, over connected
  /// sites (milliseconds) — the fallback tax.
  [[nodiscard]] double mean_added_latency_ms() const {
    return conn.user_success == 0
               ? 0.0
               : static_cast<double>(conn.added_latency_us) * 1e-3 /
                     static_cast<double>(conn.user_success);
  }
  /// Mean wall time until connected, over connected sites (milliseconds).
  [[nodiscard]] double mean_user_latency_ms() const {
    return conn.user_success == 0
               ? 0.0
               : static_cast<double>(conn.user_latency_us) * 1e-3 /
                     static_cast<double>(conn.user_success);
  }
  /// Share of DNS queries lost to timeouts (the DNS-level loss the conn
  /// layer never sees).
  [[nodiscard]] double dns_timeout_rate() const {
    return dns.queries == 0 ? 0.0
                            : static_cast<double>(dns.timeouts) /
                                  static_cast<double>(dns.queries);
  }
};

/// One report per vantage point, pulled from a (finished or quiescent)
/// campaign. Works under kNone too — every conn field is simply zero.
[[nodiscard]] std::vector<FallbackVpReport> fallback_reports(
    const core::Campaign& campaign);

/// Render the reports as the fallback-tax table (one row per VP).
[[nodiscard]] util::TextTable fallback_table(
    const std::vector<FallbackVpReport>& reports);

}  // namespace v6mon::analysis
