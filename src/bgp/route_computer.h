#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ip/prefix.h"
#include "topo/as_graph.h"
#include "util/contracts.h"

namespace v6mon::bgp {

/// Class of the selected route at an AS, in *decreasing* preference order
/// per the Gao-Rexford economic model: routes learned from customers are
/// preferred over routes learned from peers over routes learned from
/// providers, regardless of AS-path length.
enum class RouteClass : std::uint8_t { kNone, kOrigin, kCustomer, kPeer, kProvider };

[[nodiscard]] constexpr const char* route_class_name(RouteClass c) {
  switch (c) {
    case RouteClass::kNone: return "none";
    case RouteClass::kOrigin: return "origin";
    case RouteClass::kCustomer: return "customer";
    case RouteClass::kPeer: return "peer";
    case RouteClass::kProvider: return "provider";
  }
  return "?";
}

/// Immutable one-family projection of the AS graph in CSR (compressed
/// sparse row) form: per-AS adjacency runs filtered down to the links the
/// family actually carries, with the role resolved inline. Built in one
/// O(V+E) pass and then shared — read-only — by every compute_routes_to
/// call for that family, so converging thousands of destinations stops
/// paying the per-edge link_in_family lookup and the AsLink indirection,
/// and parallel workers share one cache-friendly structure. Edge order
/// per AS is exactly AsGraph::adjacencies order (filtered), so route
/// selection is bit-identical to computing straight off the graph.
class FamilyView {
 public:
  struct Edge {
    topo::Asn neighbor = topo::kNoAs;
    topo::Role role = topo::Role::kPeer;  ///< What `neighbor` is to the owner.
  };

  FamilyView(const topo::AsGraph& graph, ip::Family family);

  [[nodiscard]] ip::Family family() const { return family_; }
  [[nodiscard]] std::size_t num_ases() const { return offsets_.size() - 1; }
  [[nodiscard]] const Edge* edges_begin(topo::Asn asn) const {
    return edges_.data() + offsets_[asn];
  }
  [[nodiscard]] const Edge* edges_end(topo::Asn asn) const {
    return edges_.data() + offsets_[asn + 1];
  }

 private:
  ip::Family family_;
  std::vector<std::uint32_t> offsets_;  ///< size num_ases + 1
  std::vector<Edge> edges_;
};

/// The source ASes a route table answers for. The RIB build reads each
/// table only at the vantage points' ASes, so it converges over their
/// *provider closure*: the sources plus every AS reachable from them
/// over provider edges of the family view. That is exact at every
/// member: a provider route at an AS depends only on that AS's
/// providers (members too), and a member's next-hop chain leaves the
/// closure only through a peer hop or a customer descent — routes that
/// stage 1 of compute_routes_to fixes for every AS regardless of scope.
/// Copies share one membership set.
class SourceScope {
 public:
  /// Every AS of a `num_ases`-AS view: a full table.
  [[nodiscard]] static SourceScope all(std::size_t num_ases);
  /// `sources` plus every AS above them over `view`'s provider edges.
  [[nodiscard]] static SourceScope provider_closure(
      const FamilyView& view, std::span<const topo::Asn> sources);

  [[nodiscard]] std::size_t num_ases() const { return num_ases_; }
  /// Number of member ASes.
  [[nodiscard]] std::size_t size() const {
    return set_ ? set_->members.size() : num_ases_;
  }
  /// The i-th member in ascending ASN order, for i < size().
  [[nodiscard]] topo::Asn operator[](std::size_t i) const {
    return set_ ? set_->members[i] : static_cast<topo::Asn>(i);
  }
  [[nodiscard]] bool contains(topo::Asn a) const {
    return a < num_ases_ && (!set_ || set_->in[a] != 0);
  }
  /// Same AS set, however each side is represented.
  [[nodiscard]] bool operator==(const SourceScope& other) const;

 private:
  struct Set {
    std::vector<topo::Asn> members;  ///< ascending
    std::vector<std::uint8_t> in;    ///< size num_ases
  };
  SourceScope(std::size_t num_ases, std::shared_ptr<const Set> set)
      : num_ases_(num_ases), set_(std::move(set)) {}

  std::size_t num_ases_ = 0;
  std::shared_ptr<const Set> set_;  ///< null: every AS
};

/// Best routes toward one destination AS, in one family, from every AS
/// of a source scope (SourceScope::all for a full table).
///
/// BGP convergence is destination-rooted, so this is the natural unit of
/// computation: stage 1 propagates customer routes up provider chains,
/// stage 2 extends them one peer hop, stage 3 floods provider routes
/// downhill (Dijkstra over selected-route lengths). Selection prefers
/// customer > peer > provider, then shortest AS path, then a stable
/// per-(AS, neighbor, destination) hash — deterministic, but spreading
/// ties across neighbors the way router-id/route-age tie-breaks do in
/// the wild.
///
/// Querying an AS outside the scope is a contract violation: the table
/// holds no valid answer for it.
class RouteTable {
 public:
  [[nodiscard]] topo::Asn dest() const { return dest_; }
  [[nodiscard]] ip::Family family() const { return family_; }

  [[nodiscard]] bool reachable(topo::Asn src) const {
    return route_class(src) != RouteClass::kNone;
  }
  [[nodiscard]] RouteClass route_class(topo::Asn src) const {
    require_in_scope(src);
    return cls_[src];
  }
  /// AS-path length in edges (0 at the destination itself).
  [[nodiscard]] unsigned path_length(topo::Asn src) const {
    require_in_scope(src);
    return length_[src];
  }
  [[nodiscard]] topo::Asn next_hop(topo::Asn src) const {
    require_in_scope(src);
    return next_hop_[src];
  }

  /// Full AS_PATH from `src`: [first-hop, ..., dest]. Empty when src is
  /// the destination or has no route. Mirrors what `show ip bgp` would
  /// print at a router inside `src` (local AS excluded, origin included).
  [[nodiscard]] std::vector<topo::Asn> as_path(topo::Asn src) const;

  /// Byte-wise table equality, scope included: route_computer_test pins
  /// that a SourceScope::all table equals the full one.
  [[nodiscard]] bool operator==(const RouteTable&) const = default;

 private:
  RouteTable(topo::Asn dest, ip::Family family, SourceScope scope);
  void require_in_scope(topo::Asn src) const {
    V6MON_REQUIRE(scope_.contains(src), "route table queried outside its source scope");
  }

  friend RouteTable compute_routes_to(const FamilyView&, topo::Asn,
                                      const SourceScope&);

  topo::Asn dest_;
  ip::Family family_;
  SourceScope scope_;
  std::vector<topo::Asn> next_hop_;
  std::vector<RouteClass> cls_;
  std::vector<std::uint16_t> length_;
};

/// Run the three-stage Gao-Rexford computation for one destination over a
/// prebuilt family view, answering for the ASes of `scope`. Stage 1 walks
/// up from the destination over the whole view; stages 2 and 3 visit and
/// relax scope members only. Pure: reads only `view` and `scope`, so tables for
/// different destinations can be computed concurrently against one shared
/// view (core::sync_vp_routes fans them out on a pool).
[[nodiscard]] RouteTable compute_routes_to(const FamilyView& view, topo::Asn dest,
                                           const SourceScope& scope);

/// The full table: scope = every AS of the view.
[[nodiscard]] RouteTable compute_routes_to(const FamilyView& view, topo::Asn dest);

/// Convenience for one-off computations: builds the family view, then
/// delegates. Callers converging many destinations should build the
/// FamilyView once and use the overloads above.
[[nodiscard]] RouteTable compute_routes_to(const topo::AsGraph& graph,
                                           ip::Family family, topo::Asn dest);

namespace detail {
/// Split evaluation of util::hash_combine(dest, "bgp-tie", index): the
/// (dest || "bgp-tie") FNV-1a prefix is loop-invariant per destination,
/// so compute_routes_to folds it once and finishes the stream per tie
/// candidate. tie_break_rank(tie_break_prefix(d), i) must equal
/// hash_combine(d, "bgp-tie", i) bit-for-bit (pinned by a test).
[[nodiscard]] std::uint64_t tie_break_prefix(std::uint64_t dest);
[[nodiscard]] std::uint64_t tie_break_rank(std::uint64_t prefix, std::uint64_t index);
}  // namespace detail

/// Verify a whole AS path is valley-free (up* [peer] down*) using only the
/// links carried by `family` — a pair of ASes may be connected by several
/// links with different roles (native + tunnel pseudo-link), and a step is
/// accepted if any same-family option keeps the path valid. Used by tests
/// and by debug assertions; a policy-routing bug would show up here first.
[[nodiscard]] bool is_valley_free(const topo::AsGraph& graph, ip::Family family,
                                  topo::Asn src,
                                  const std::vector<topo::Asn>& path);

}  // namespace v6mon::bgp
