#pragma once

// The observation dump's format, one row at a time through a default
// `std::ostream <<`: the reference ResultsDb::write_csv is held to. It
// shares nothing with the library's chunk formatter.

#include <sstream>
#include <string>
#include <vector>

#include "core/results.h"

namespace v6mon::csv_ref {

inline constexpr const char* kCsvHeader =
    "site,round,status,v4_speed_kBps,v6_speed_kBps,v4_samples,v6_samples,"
    "v4_origin,v6_origin,v4_path,v6_path\n";

/// Every monitoring status, in enum order.
inline constexpr core::MonitorStatus kAllStatuses[] = {
    core::MonitorStatus::kDnsFailed,        core::MonitorStatus::kV4Only,
    core::MonitorStatus::kV6Only,           core::MonitorStatus::kV4DownloadFailed,
    core::MonitorStatus::kV6DownloadFailed, core::MonitorStatus::kDifferentContent,
    core::MonitorStatus::kMeasured};

/// Every field through a default `std::ostream <<` (floats at the
/// stream's default `%.6g`) and paths through an ostringstream, exactly
/// as the dump was first specified, with each row's route pair read back
/// as two routes and each route as its origin and path.
inline std::string stream_oracle_csv(const core::PathRegistry& paths,
                                     const std::vector<core::Observation>& rows) {
  auto path_text = [&paths](core::PathId id) -> std::string {
    if (id == core::kNoPath) return "-";
    const std::vector<topo::Asn>& p = paths.path(id);
    if (p.empty()) return "(local)";
    std::ostringstream s;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (i) s << ' ';
      s << "AS" << p[i];
    }
    return s.str();
  };
  std::ostringstream out;
  out << kCsvHeader;
  for (const core::Observation& o : rows) {
    out << o.site << ',' << o.round << ',' << core::monitor_status_name(o.status) << ','
        << o.v4_speed_kBps << ',' << o.v6_speed_kBps << ',' << o.v4_samples << ','
        << o.v6_samples << ',';
    const core::RoutePair pair = paths.pair(o.route_pair);
    const core::Route v4 = paths.route(pair.v4);
    const core::Route v6 = paths.route(pair.v6);
    if (v4.origin != topo::kNoAs) out << v4.origin;
    out << ',';
    if (v6.origin != topo::kNoAs) out << v6.origin;
    out << ',' << path_text(v4.path) << ',' << path_text(v6.path) << '\n';
  }
  return out.str();
}

}  // namespace v6mon::csv_ref
