#include "bgp/route_computer.h"

#include <cassert>
#include <queue>
#include <string_view>

#include "util/contracts.h"
#include "util/error.h"
#include "util/rng.h"

namespace v6mon::bgp {

using topo::Adjacency;
using topo::AsGraph;
using topo::Asn;
using topo::kNoAs;
using topo::Role;

namespace detail {

std::uint64_t tie_break_prefix(std::uint64_t dest) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(dest >> (8 * i)));
  for (char c : std::string_view("bgp-tie")) mix_byte(static_cast<unsigned char>(c));
  return h;
}

std::uint64_t tie_break_rank(std::uint64_t prefix, std::uint64_t index) {
  std::uint64_t h = prefix;
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<unsigned char>(index >> (8 * i));
    h *= 1099511628211ULL;
  }
  // splitmix64 finisher, exactly as util::hash_combine.
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace detail

SourceScope SourceScope::all(std::size_t num_ases) { return {num_ases, nullptr}; }

SourceScope SourceScope::provider_closure(const FamilyView& view,
                                          std::span<const Asn> sources) {
  const std::size_t n = view.num_ases();
  auto set = std::make_shared<Set>();
  set->in.assign(n, 0);
  std::vector<Asn> stack;
  for (const Asn s : sources) {
    if (s >= n) throw ConfigError("SourceScope: source AS out of range");
    if (set->in[s] == 0) {
      set->in[s] = 1;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const Asn u = stack.back();
    stack.pop_back();
    for (const FamilyView::Edge* e = view.edges_begin(u); e != view.edges_end(u); ++e) {
      if (e->role != Role::kProvider || set->in[e->neighbor] != 0) continue;
      set->in[e->neighbor] = 1;
      stack.push_back(e->neighbor);
    }
  }
  for (Asn a = 0; a < n; ++a) {
    if (set->in[a] != 0) set->members.push_back(a);
  }
  return {n, std::move(set)};
}

bool SourceScope::operator==(const SourceScope& other) const {
  if (num_ases_ != other.num_ases_ || size() != other.size()) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    if ((*this)[i] != other[i]) return false;
  }
  return true;
}

RouteTable::RouteTable(Asn dest, ip::Family family, SourceScope scope)
    : dest_(dest),
      family_(family),
      scope_(std::move(scope)),
      next_hop_(scope_.num_ases(), kNoAs),
      cls_(scope_.num_ases(), RouteClass::kNone),
      length_(scope_.num_ases(), 0) {}

std::vector<Asn> RouteTable::as_path(Asn src) const {
  require_in_scope(src);
  std::vector<Asn> path;
  if (src == dest_ || cls_[src] == RouteClass::kNone) return path;
  path.reserve(length_[src]);
  Asn cur = src;
  while (cur != dest_) {
    const Asn nh = next_hop_[cur];
    if (nh == kNoAs || path.size() > next_hop_.size()) {
      throw Error("corrupt route table: broken next-hop chain");
    }
    path.push_back(nh);
    cur = nh;
  }
  V6MON_ENSURE(!path.empty() && path.back() == dest_,
               "AS_PATH must terminate at the destination");
  V6MON_ENSURE(path.size() == length_[src],
               "selected route length disagrees with the next-hop chain");
  return path;
}

FamilyView::FamilyView(const AsGraph& graph, ip::Family family)
    : family_(family) {
  const std::size_t n = graph.num_ases();
  offsets_.assign(n + 1, 0);
  for (Asn u = 0; u < n; ++u) {
    for (const Adjacency& adj : graph.adjacencies(u)) {
      if (graph.link_in_family(adj.link_id, family)) ++offsets_[u + 1];
    }
  }
  for (std::size_t u = 0; u < n; ++u) offsets_[u + 1] += offsets_[u];
  edges_.resize(offsets_[n]);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (Asn u = 0; u < n; ++u) {
    for (const Adjacency& adj : graph.adjacencies(u)) {
      if (!graph.link_in_family(adj.link_id, family)) continue;
      edges_[cursor[u]++] = Edge{adj.neighbor, adj.role};
    }
  }
}

RouteTable compute_routes_to(const AsGraph& graph, ip::Family family, Asn dest) {
  return compute_routes_to(FamilyView(graph, family), dest);
}

RouteTable compute_routes_to(const FamilyView& view, Asn dest) {
  return compute_routes_to(view, dest, SourceScope::all(view.num_ases()));
}

RouteTable compute_routes_to(const FamilyView& view, Asn dest,
                             const SourceScope& scope) {
  const std::size_t n = view.num_ases();
  if (dest >= n) throw ConfigError("compute_routes_to: destination out of range");
  V6MON_REQUIRE(scope.num_ases() == n, "source scope built for another view");
  RouteTable t(dest, view.family(), scope);

  // Final BGP tie-break between equal-preference, equal-length candidates.
  // Real routers fall back to router-id / route age — arbitrary but
  // stable per (AS, neighbor, destination). A deterministic hash models
  // that; lowest-ASN would instead make one provider win *every* tie,
  // which no real multi-homed network observes. The hash is family-blind
  // on purpose: a dual-stack router applies the same preferences to both
  // families, so IPv6 follows the IPv4 choice whenever the IPv6 topology
  // still contains it — path divergence then reflects genuinely missing
  // IPv6 adjacencies, not coin flips.
  // hash_combine(dest, "bgp-tie", idx) mixes (dest || "bgp-tie" || idx)
  // byte-wise; the first fifteen bytes are loop-invariant, and tie_rank is
  // the hottest scalar op in the whole RIB build — fold them once and
  // continue the FNV-1a stream per candidate. Bit-identical by
  // construction (route_computer_test pins this against hash_combine).
  const std::uint64_t tie_prefix =
      detail::tie_break_prefix(static_cast<std::uint64_t>(dest));
  auto tie_rank = [tie_prefix](Asn at, Asn via) {
    return detail::tie_break_rank(tie_prefix,
                                  (static_cast<std::uint64_t>(at) << 32) | via);
  };

  t.cls_[dest] = RouteClass::kOrigin;
  t.length_[dest] = 0;

  // ---- Stage 1: customer routes -----------------------------------------
  // A route announced by the destination climbs provider chains: every AS
  // on an all-downhill path to `dest` selects a customer route. BFS from
  // the destination over customer->provider edges; level order gives the
  // shortest path, and within a level the lowest next-hop ASN wins.
  std::vector<Asn> frontier{dest};
  std::vector<Asn> next_frontier;
  std::uint16_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next_frontier.clear();
    for (Asn u : frontier) {
      for (const FamilyView::Edge* e = view.edges_begin(u); e != view.edges_end(u);
           ++e) {
        if (e->role != Role::kProvider) continue;  // u's provider hears the route
        const Asn p = e->neighbor;
        if (t.cls_[p] == RouteClass::kOrigin) continue;
        if (t.cls_[p] == RouteClass::kCustomer) {
          if (t.length_[p] == level &&
              tie_rank(p, u) < tie_rank(p, t.next_hop_[p])) {
            t.next_hop_[p] = u;
          }
          continue;
        }
        t.cls_[p] = RouteClass::kCustomer;
        t.length_[p] = level;
        t.next_hop_[p] = u;
        next_frontier.push_back(p);
      }
    }
    frontier.swap(next_frontier);
  }

  // ---- Stage 2: peer routes ----------------------------------------------
  // An AS without a customer route can reach `dest` through a peer that
  // has one (valley-free: a peer edge may only be followed by downhill
  // edges — which a customer route is made of). Stage 1 is complete, so
  // each scope member decides alone.
  for (std::size_t i = 0; i < scope.size(); ++i) {
    const Asn x = scope[i];
    if (t.cls_[x] == RouteClass::kCustomer || t.cls_[x] == RouteClass::kOrigin) continue;
    for (const FamilyView::Edge* e = view.edges_begin(x); e != view.edges_end(x);
         ++e) {
      if (e->role != Role::kPeer) continue;
      const Asn y = e->neighbor;
      if (t.cls_[y] != RouteClass::kCustomer && t.cls_[y] != RouteClass::kOrigin) continue;
      const std::uint16_t cand = static_cast<std::uint16_t>(t.length_[y] + 1);
      if (t.cls_[x] != RouteClass::kPeer || cand < t.length_[x] ||
          (cand == t.length_[x] &&
           tie_rank(x, y) < tie_rank(x, t.next_hop_[x]))) {
        t.cls_[x] = RouteClass::kPeer;
        t.length_[x] = cand;
        t.next_hop_[x] = y;
      }
    }
  }

  // ---- Stage 3: provider routes -------------------------------------------
  // Providers export their *selected* route (whatever its class) to
  // customers, and those provider routes chain further down. Dijkstra over
  // (length, asn) keyed pops; every AS already holding a customer/peer
  // route is a fixed seed (its selection cannot be displaced by a provider
  // route — class preference dominates). The scope is closed under
  // providers, so relaxing only its members reproduces the full flood at
  // each of them: a provider route depends only on the AS's providers.
  using Key = std::pair<std::uint32_t, Asn>;  // (selected length, asn)
  std::priority_queue<Key, std::vector<Key>, std::greater<>> pq;
  for (std::size_t i = 0; i < scope.size(); ++i) {
    const Asn x = scope[i];
    if (t.cls_[x] != RouteClass::kNone) pq.push({t.length_[x], x});
  }
  std::vector<char> finalized(n, 0);
  while (!pq.empty()) {
    const auto [len, u] = pq.top();
    pq.pop();
    if (finalized[u] || len != t.length_[u]) continue;
    finalized[u] = 1;
    for (const FamilyView::Edge* e = view.edges_begin(u); e != view.edges_end(u);
         ++e) {
      if (e->role != Role::kCustomer) continue;  // u exports to its customers
      const Asn c = e->neighbor;
      if (!scope.contains(c)) continue;
      if (t.cls_[c] == RouteClass::kOrigin || t.cls_[c] == RouteClass::kCustomer ||
          t.cls_[c] == RouteClass::kPeer) {
        continue;  // better class already selected
      }
      const std::uint16_t cand = static_cast<std::uint16_t>(t.length_[u] + 1);
      if (t.cls_[c] == RouteClass::kNone || cand < t.length_[c]) {
        t.cls_[c] = RouteClass::kProvider;
        t.length_[c] = cand;
        t.next_hop_[c] = u;
        pq.push({cand, c});
      } else if (cand == t.length_[c] &&
                 tie_rank(c, u) < tie_rank(c, t.next_hop_[c])) {
        t.next_hop_[c] = u;  // tie-break; length unchanged, no re-push needed
      }
    }
  }

  V6MON_ENSURE(t.cls_[dest] == RouteClass::kOrigin && t.length_[dest] == 0,
               "the destination must keep its origin route");
  return t;
}

namespace {

/// Roles `to` can play relative to `from` across the from-to links carried
/// by the given family. A pair of ASes can be connected by more than one
/// link in a family (e.g. a native relationship link plus a v6 tunnel
/// pseudo-link), so this returns every distinct option.
struct StepRoles {
  bool provider = false;
  bool peer = false;
  bool customer = false;
  [[nodiscard]] bool any() const { return provider || peer || customer; }
};

StepRoles step_roles(const AsGraph& graph, ip::Family family, Asn from, Asn to) {
  StepRoles roles;
  for (const Adjacency& adj : graph.adjacencies(from)) {
    if (adj.neighbor != to) continue;
    if (!graph.link_in_family(adj.link_id, family)) continue;
    switch (adj.role) {
      case Role::kProvider: roles.provider = true; break;
      case Role::kPeer: roles.peer = true; break;
      case Role::kCustomer: roles.customer = true; break;
    }
  }
  return roles;
}

}  // namespace

bool is_valley_free(const AsGraph& graph, ip::Family family, Asn src,
                    const std::vector<Asn>& path) {
  if (path.empty()) return true;
  // Phases: 0 = climbing (up edges), 1 = after the single peer edge,
  // 2 = descending (down edges only). Legality is monotone in the phase
  // (everything legal at phase 1/2 is legal at phase 0), so when a step
  // has several role options the greedy choice — the one leaving the
  // smallest phase — never rules out a viable continuation.
  int phase = 0;
  Asn prev = src;
  for (Asn cur : path) {
    const StepRoles roles = step_roles(graph, family, prev, cur);
    if (!roles.any()) return false;  // path uses a non-existent adjacency
    if (roles.provider && phase == 0) {
      // uphill: stay in phase 0
    } else if (roles.peer && phase == 0) {
      phase = 1;
    } else if (roles.customer) {
      phase = 2;  // downhill
    } else {
      return false;
    }
    prev = cur;
  }
  return true;
}

}  // namespace v6mon::bgp
