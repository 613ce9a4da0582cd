#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ip/trie.h"
#include "topo/as_graph.h"
#include "util/contracts.h"

namespace v6mon::bgp {

/// A double derived from an entry's AS path alone (the path's quality
/// normal, transport::path_normal), drawn on first use and kept. Lock-free:
/// relaxed atomics suffice, as the value is a pure function of the path,
/// so workers that race store the same bits. A copied or assigned memo
/// starts unset, so every route installed or rewritten in a Rib starts
/// unset, and equality ignores the memo.
class PathMemo {
 public:
  PathMemo() = default;
  PathMemo(const PathMemo& /*other*/) noexcept {}
  PathMemo& operator=(const PathMemo& /*other*/) noexcept {
    bits_.store(kUnset, std::memory_order_relaxed);
    return *this;
  }
  [[nodiscard]] bool operator==(const PathMemo& /*other*/) const { return true; }

  /// The kept value, or `draw()`'s, kept for later calls.
  template <typename Draw>
  [[nodiscard]] double get(Draw&& draw) const {
    if (const std::optional<double> v = value()) return *v;
    const double v = draw();
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
    return v;
  }
  /// The kept value; nullopt before the first get().
  [[nodiscard]] std::optional<double> value() const {
    const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
    if (bits == kUnset) return std::nullopt;
    return std::bit_cast<double>(bits);
  }

 private:
  /// A NaN payload: no normal variate has these bits.
  static constexpr std::uint64_t kUnset = 0x7ff8'0000'dead'beefULL;
  mutable std::atomic<std::uint64_t> bits_{kUnset};
};

/// One installed route: the originating AS and the AS_PATH toward it.
struct RibEntry {
  topo::Asn origin = topo::kNoAs;
  /// [first-hop AS, ..., origin AS]; empty for locally-originated space.
  std::vector<topo::Asn> as_path;
  /// The path's quality normal, drawn by the first resolved row that
  /// characterizes this route (core::Monitor).
  PathMemo path_normal{};

  [[nodiscard]] bool operator==(const RibEntry&) const = default;

  [[nodiscard]] unsigned hop_count() const {
    return static_cast<unsigned>(as_path.size());
  }

  /// Path-vector loop freedom: BGP discards any announcement whose AS_PATH
  /// already contains the local AS, so an installed path never repeats an
  /// AS. O(n^2) over paths that are a handful of hops long.
  [[nodiscard]] bool loop_free() const {
    for (std::size_t i = 0; i < as_path.size(); ++i) {
      for (std::size_t j = i + 1; j < as_path.size(); ++j) {
        if (as_path[i] == as_path[j]) return false;
      }
    }
    return true;
  }
};

/// The dual-stack BGP routing table of (a router near) one vantage point.
/// This is the paper's "core routing table of a router close to the
/// machine running the monitoring software": the monitor queries it for
/// the AS_PATH to every site it measures.
class Rib {
 public:
  void add_v4(const ip::Ipv4Prefix& prefix, RibEntry entry) {
    check_entry(entry);
    v4_.insert(prefix, std::move(entry));
  }
  void add_v6(const ip::Ipv6Prefix& prefix, RibEntry entry) {
    check_entry(entry);
    v6_.insert(prefix, std::move(entry));
  }

  /// Withdraw a route (core::sync_vp_routes and prefix withdrawal
  /// deltas). The trie keeps the value's storage alive, so a RibEntry*
  /// cached by a stale ResolvedSiteTable row stays dereferenceable until
  /// the row is purged at the epoch boundary — it just stops being
  /// returned by lookups. Returns false when no exact entry existed.
  bool erase_v4(const ip::Ipv4Prefix& prefix) { return v4_.erase(prefix); }
  bool erase_v6(const ip::Ipv6Prefix& prefix) { return v6_.erase(prefix); }

  /// The route installed for exactly `prefix`; nullptr when none is.
  [[nodiscard]] const RibEntry* find_v4(const ip::Ipv4Prefix& prefix) const {
    return v4_.find(prefix);
  }
  [[nodiscard]] const RibEntry* find_v6(const ip::Ipv6Prefix& prefix) const {
    return v6_.find(prefix);
  }

  /// Longest-prefix-match lookups; nullptr when the table has no route.
  [[nodiscard]] const RibEntry* lookup_v4(const ip::Ipv4Address& a) const {
    return v4_.lookup(a);
  }
  [[nodiscard]] const RibEntry* lookup_v6(const ip::Ipv6Address& a) const {
    return v6_.lookup(a);
  }

  [[nodiscard]] std::size_t v4_routes() const { return v4_.size(); }
  [[nodiscard]] std::size_t v6_routes() const { return v6_.size(); }

  /// Bytes both tables hold, by size: trie nodes, route entries (withdrawn
  /// ones keep their slot) and each entry's AS_PATH elements.
  [[nodiscard]] std::size_t bytes() const {
    const auto path_bytes = [](const RibEntry& e) {
      return e.as_path.size() * sizeof(topo::Asn);
    };
    return v4_.bytes(path_bytes) + v6_.bytes(path_bytes);
  }

  /// Visit all routes of one family (used by coverage statistics).
  template <typename Fn>
  void for_each_v4(Fn&& fn) const {
    v4_.for_each(fn);
  }
  template <typename Fn>
  void for_each_v6(Fn&& fn) const {
    v6_.for_each(fn);
  }

 private:
  static void check_entry(const RibEntry& entry) {
    V6MON_ASSERT(entry.loop_free(), "AS_PATH repeats an AS (routing loop)");
    V6MON_ASSERT(entry.as_path.empty() || entry.as_path.back() == entry.origin,
                 "AS_PATH must terminate at the origin AS");
  }

  ip::PrefixTrie<ip::Ipv4Address, RibEntry> v4_;
  ip::PrefixTrie<ip::Ipv6Address, RibEntry> v6_;
};

}  // namespace v6mon::bgp
