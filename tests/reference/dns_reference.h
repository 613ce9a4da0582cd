#pragma once

// A catalog resolver keyed by hostname: the DNS stage of the paper's
// Fig. 2 as a real resolver would see it. The campaign answers a site's
// A and AAAA queries from the catalog by site id and draws their loss
// with core::draw_query_loss; this is the reference both are held to.
// No cache, no zone database, no metrics.

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ip/ipv4.h"
#include "ip/ipv6.h"
#include "util/rng.h"
#include "web/catalog.h"

namespace v6mon::dns_ref {

/// The name a site is queried under.
inline std::string site_hostname(std::uint32_t site_id) {
  return "www.s" + std::to_string(site_id) + ".v6mon.test";
}

/// The site id in "www.s<id>.v6mon.test"; nullopt for any other name.
inline std::optional<std::uint32_t> parse_site_hostname(std::string_view name) {
  constexpr std::string_view kPrefix = "www.s";
  constexpr std::string_view kSuffix = ".v6mon.test";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) return std::nullopt;
  const std::string_view digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  std::uint32_t id = 0;
  const auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), id);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) return std::nullopt;
  return id;
}

enum class QueryType : std::uint8_t { kA, kAaaa };

enum class Rcode : std::uint8_t {
  kOk,        ///< The name exists; the answer may still be empty (NODATA).
  kNxDomain,  ///< Not one of the catalog's names.
  kTimeout,   ///< The query was lost.
};

struct Answer {
  Rcode rcode = Rcode::kOk;
  std::optional<ip::Ipv4Address> a;
  std::optional<ip::Ipv6Address> aaaa;

  [[nodiscard]] bool has_answers() const { return a.has_value() || aaaa.has_value(); }
};

class CatalogResolver {
 public:
  /// `rng_seed` seeds the stream the timeout draws come from.
  CatalogResolver(const web::SiteCatalog& catalog, double timeout_prob,
                  std::uint64_t rng_seed)
      : catalog_(catalog), timeout_prob_(timeout_prob), rng_(rng_seed) {}

  /// Loses the query with probability timeout_prob (no draw at 0);
  /// otherwise A comes from the site's hosting at `round`, and AAAA too
  /// while the site is dual-stack.
  Answer resolve(std::string_view name, QueryType type, std::uint32_t round) {
    ++queries_;
    Answer out;
    if (timeout_prob_ > 0.0 && rng_.chance(timeout_prob_)) {
      ++timeouts_;
      out.rcode = Rcode::kTimeout;
      return out;
    }
    const std::optional<std::uint32_t> id = parse_site_hostname(name);
    if (!id || *id >= catalog_.size()) {
      out.rcode = Rcode::kNxDomain;
      return out;
    }
    const web::Site& site = catalog_.site(*id);
    const web::Hosting hosting = catalog_.hosting_at(site, round);
    if (type == QueryType::kA) {
      out.a = hosting.v4_addr;
    } else if (catalog_.dual_stack_at(site, round)) {
      out.aaaa = hosting.v6_addr;
    }
    return out;
  }

  [[nodiscard]] std::uint64_t queries() const { return queries_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

 private:
  const web::SiteCatalog& catalog_;
  double timeout_prob_;
  util::Rng rng_;
  std::uint64_t queries_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace v6mon::dns_ref
