#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/thread_pool.h"
#include "core/world.h"
#include "ip/prefix.h"

namespace v6mon::core {

/// What one sync_vp_routes pass did.
struct VpRouteSync {
  /// Destinations with at least one rewritten row, ascending.
  std::vector<topo::Asn> rewritten_dests;
  /// (VP, destination) rows rewritten, the 2002::/16 rows included.
  std::size_t rows_rewritten = 0;
  /// Prefix routes added to the RIBs (withdrawals not counted).
  std::size_t prefixes_installed = 0;
  /// Route tables converged.
  std::size_t tables_computed = 0;
  /// Size of the vantage points' provider closure the tables answer for.
  std::size_t scope_ases = 0;
};

/// The one pass that brings the vantage points' `family` RIB rows toward
/// `dests` (strictly ascending) in line with the graph; the world build
/// and every epoch advance run it. Each destination converges over the
/// VPs' provider closure (bgp::SourceScope says why that is exact) on
/// `pool`; its worker diffs every VP's wanted row against the RIB and
/// drops the table. The rows that differ are then installed, or
/// withdrawn when no route is wanted, serially in ASN order. An IPv6 row
/// needs a dual-stack destination and skips 6to4 prefixes: the IPv6 pass
/// re-elects each VP's 2002::/16 route among the live relays
/// (bgp/anycast.h) instead, converging a relay itself when it is not in
/// `dests`. A second pass on an unchanged world rewrites nothing.
VpRouteSync sync_vp_routes(World& world, ip::Family family,
                           std::span<const topo::Asn> dests, ThreadPool& pool);

}  // namespace v6mon::core
