#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/record.h"
#include "dns/zone.h"
#include "util/rng.h"

namespace v6mon::dns {

/// Result of a resolution attempt.
struct QueryResult {
  Rcode rcode = Rcode::kOk;
  std::vector<ResourceRecord> records;
  bool from_cache = false;

  [[nodiscard]] bool ok() const { return rcode == Rcode::kOk; }
  [[nodiscard]] bool has_answers() const { return ok() && !records.empty(); }
};

/// Caching stub resolver used by the monitor.
///
/// The cache is keyed by (name, type) and expires in *rounds* — a round
/// in the campaign is days apart, so any sane TTL has expired; a TTL of
/// `cache_rounds = 0` therefore models the paper's behaviour (fresh
/// queries every round) while tests exercise positive values.
/// `timeout_prob` injects query loss.
class Resolver {
 public:
  struct Options {
    std::uint32_t cache_rounds = 0;
    double timeout_prob = 0.0;
  };

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t nxdomain = 0;
  };

  /// `rng_seed` seeds the stream that drives timeout injection only. The
  /// stream is built in place and seeds lazily, so the common
  /// timeout_prob == 0 configuration never pays for it.
  Resolver(const AuthoritativeSource& source, Options options, std::uint64_t rng_seed);

  /// Resolve `name`/`type` as of measurement round `round`.
  QueryResult resolve(std::string_view name, RecordType type, std::uint32_t round);

  /// Drop all cached entries.
  void flush();

  /// Whether the next uncached query is lost: the timeout draw resolve()
  /// makes on its stream. No draw at timeout_prob == 0. Public so a
  /// caller can replay a stream's verdicts without building a resolver.
  [[nodiscard]] static bool draw_timeout(double timeout_prob, util::Rng& rng) {
    return timeout_prob > 0.0 && rng.chance(timeout_prob);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct CacheEntry {
    std::uint32_t expires_round = 0;
    QueryResult result;
  };

  const AuthoritativeSource& source_;
  Options options_;
  util::Rng rng_;
  Stats stats_;
  std::unordered_map<std::string, CacheEntry> cache_;

  static std::string cache_key(std::string_view name, RecordType type);
};

}  // namespace v6mon::dns
