#pragma once

#include <cstdint>

namespace v6mon::dns {

/// The campaign's DNS loss model. The monitor answers a site's A and
/// AAAA queries from the catalog by site id, so all that is left of a
/// resolver is the probability that a query is lost
/// (core::draw_query_loss draws it) and the per-VP tally of queries and
/// timeouts (core::Campaign::dns_stats).
struct Resolver {
  struct Options {
    /// Probability that one query times out; 0 draws nothing.
    double timeout_prob = 0.0;
  };

  struct Stats {
    std::uint64_t queries = 0;
    /// Always 0: the campaign caches no answer. It stays because the
    /// study benchmark (bench/study/study_bench.cpp) still exports it as
    /// `dns.cache_hits`, and goes when that export does.
    std::uint64_t cache_hits = 0;
    std::uint64_t timeouts = 0;
  };
};

}  // namespace v6mon::dns
