#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "ip/prefix.h"
#include "util/contracts.h"

namespace v6mon::ip {

/// Binary (path-uncompressed) trie keyed by CIDR prefixes, providing
/// longest-prefix-match lookups — the core data structure of a routing
/// table (FIB). Insertion of a duplicate prefix overwrites its value.
///
/// Storage is an index-linked arena rather than pointer-linked heap
/// nodes: nodes are 12-byte {zero, one, value} index triples packed in
/// one contiguous vector, so an LPM walk (up to `Addr::kBits` steps of
/// the hot monitoring path — twice per dual-stack site) chases small
/// same-array indices instead of scattered allocations. Values live in a
/// deque on the side: `lookup`/`find` pointers stay valid across later
/// inserts, which callers rely on to cache routes across a campaign.
///
/// The trie is deliberately simple otherwise: forwarding tables in this
/// simulator hold thousands (not millions) of routes. A production FIB
/// would add path compression or a multibit stride; tests include an
/// oracle comparison so swapping the implementation later is safe.
template <typename Addr, typename Value>
class PrefixTrie {
 public:
  using PrefixT = Prefix<Addr>;

  PrefixTrie() { nodes_.push_back(Node{}); }  // root at index 0

  /// Insert or overwrite. Returns true if a new prefix was added, false
  /// if an existing value was replaced.
  bool insert(const PrefixT& prefix, Value value) {
    V6MON_REQUIRE(prefix.length() <= Addr::kBits,
                  "prefix longer than the address width");
    const std::uint32_t node = walk_to(prefix, /*create=*/true);
    V6MON_ASSERT(node != kNil, "walk_to(create) must materialize the node");
    const bool fresh = nodes_[node].value == kNil;
    if (fresh) {
      nodes_[node].value = static_cast<std::uint32_t>(values_.size());
      values_.push_back(std::move(value));
      ++size_;
    } else {
      // In-place replacement: pointers handed out by lookup()/find() for
      // this prefix observe the new value, exactly like the original
      // optional-assignment semantics.
      values_[nodes_[node].value] = std::move(value);
    }
    V6MON_ENSURE(nodes_[node].value != kNil && size_ > 0,
                 "insert must leave the prefix present");
    return fresh;
  }

  /// Remove a prefix. Returns true if it was present. (Nodes and value
  /// slots are not garbage-collected; removal is rare in our workloads.)
  bool erase(const PrefixT& prefix) {
    const std::uint32_t node = walk_to(prefix, /*create=*/false);
    if (node == kNil || nodes_[node].value == kNil) return false;
    V6MON_ASSERT(size_ > 0, "erase of a present prefix implies size_ > 0");
    nodes_[node].value = kNil;
    --size_;
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] const Value* find(const PrefixT& prefix) const {
    const std::uint32_t node =
        const_cast<PrefixTrie*>(this)->walk_to(prefix, false);
    if (node == kNil || nodes_[node].value == kNil) return nullptr;
    return &values_[nodes_[node].value];
  }

  /// Longest-prefix match for an address; nullptr when nothing covers it.
  [[nodiscard]] const Value* lookup(const Addr& addr) const {
    const Node* nodes = nodes_.data();
    const Value* best =
        nodes[0].value != kNil ? &values_[nodes[0].value] : nullptr;
    std::uint32_t idx = 0;
    for (unsigned depth = 0; depth < Addr::kBits; ++depth) {
      idx = addr.bit(depth) ? nodes[idx].one : nodes[idx].zero;
      if (idx == kNil) break;
      if (nodes[idx].value != kNil) best = &values_[nodes[idx].value];
    }
    return best;
  }

  /// Longest-prefix match returning the matched prefix as well.
  [[nodiscard]] std::optional<std::pair<PrefixT, Value>> lookup_entry(
      const Addr& addr) const {
    const Node* nodes = nodes_.data();
    std::uint32_t best = nodes[0].value != kNil ? 0 : kNil;
    unsigned best_depth = 0;
    std::uint32_t idx = 0;
    for (unsigned depth = 0; depth < Addr::kBits; ++depth) {
      idx = addr.bit(depth) ? nodes[idx].one : nodes[idx].zero;
      if (idx == kNil) break;
      if (nodes[idx].value != kNil) {
        best = idx;
        best_depth = depth + 1;
      }
    }
    if (best == kNil) return std::nullopt;
    return std::make_pair(PrefixT(mask_address(addr, best_depth), best_depth),
                          values_[nodes[best].value]);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Bytes the trie holds, by size (not capacity): its nodes and every
  /// value slot, erased ones included, plus `value_bytes(v)` for what
  /// each slot's value owns on the heap.
  template <typename Fn>
  [[nodiscard]] std::size_t bytes(Fn&& value_bytes) const {
    std::size_t total = nodes_.size() * sizeof(Node) + values_.size() * sizeof(Value);
    for (const Value& v : values_) total += value_bytes(v);
    return total;
  }

  /// Visit every (prefix, value) pair in lexicographic bit order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    Addr scratch{};
    visit(0, scratch, 0, fn);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::uint32_t zero = kNil;   ///< nodes_ index of the 0-bit child.
    std::uint32_t one = kNil;    ///< nodes_ index of the 1-bit child.
    std::uint32_t value = kNil;  ///< values_ index, kNil when no prefix ends here.
  };

  std::uint32_t walk_to(const PrefixT& prefix, bool create) {
    std::uint32_t node = 0;
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const bool one = prefix.network().bit(depth);
      std::uint32_t next = one ? nodes_[node].one : nodes_[node].zero;
      if (next == kNil) {
        if (!create) return kNil;
        next = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{});  // may move nodes_; re-index below
        (one ? nodes_[node].one : nodes_[node].zero) = next;
      }
      node = next;
    }
    return node;
  }

  template <typename Fn>
  void visit(std::uint32_t node, Addr& bits, unsigned depth, Fn& fn) const {
    if (node == kNil) return;
    if (nodes_[node].value != kNil) {
      fn(PrefixT(bits, depth), values_[nodes_[node].value]);
    }
    if (depth == Addr::kBits) return;
    visit(nodes_[node].zero, bits, depth + 1, fn);
    Addr with_bit = set_bit(bits, depth);
    visit(nodes_[node].one, with_bit, depth + 1, fn);
  }

  static Ipv4Address set_bit(Ipv4Address a, unsigned depth) {
    return Ipv4Address(a.value() | (std::uint32_t{1} << (31 - depth)));
  }
  static Ipv6Address set_bit(Ipv6Address a, unsigned depth) {
    auto b = a.bytes();
    b[depth / 8] |= static_cast<std::uint8_t>(1u << (7 - depth % 8));
    return Ipv6Address(b);
  }

  /// Contiguous node arena; index 0 is the root. Indices, not pointers:
  /// growth relocates the vector without invalidating links.
  std::vector<Node> nodes_;
  /// Deque so lookup()/find() pointers survive later inserts.
  std::deque<Value> values_;
  std::size_t size_ = 0;
};

}  // namespace v6mon::ip
