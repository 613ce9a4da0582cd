#include "dns/resolver.h"

#include "obs/metrics.h"

namespace v6mon::dns {

namespace {

/// Campaign-wide mirrors of the per-Resolver Stats counters. Each event
/// fires once per (site, round) RNG stream, so totals are deterministic
/// in thread count and sink backend.
struct DnsMetricIds {
  obs::MetricId queries = obs::metrics().counter("dns.queries");
  obs::MetricId cache_hits = obs::metrics().counter("dns.cache_hits");
  obs::MetricId timeouts = obs::metrics().counter("dns.timeouts");
  obs::MetricId nxdomain = obs::metrics().counter("dns.nxdomain");
};

const DnsMetricIds& dns_metric_ids() {
  static const DnsMetricIds ids;
  return ids;
}

}  // namespace

Resolver::Resolver(const AuthoritativeSource& source, Options options,
                   std::uint64_t rng_seed)
    : source_(source), options_(options), rng_(rng_seed) {}

std::string Resolver::cache_key(std::string_view name, RecordType type) {
  std::string key(name);
  key += '|';
  key += record_type_name(type);
  return key;
}

QueryResult Resolver::resolve(std::string_view name, RecordType type,
                              std::uint32_t round) {
  ++stats_.queries;
  obs::metrics().add(dns_metric_ids().queries);

  if (options_.cache_rounds > 0) {
    const auto it = cache_.find(cache_key(name, type));
    if (it != cache_.end() && round < it->second.expires_round) {
      ++stats_.cache_hits;
      obs::metrics().add(dns_metric_ids().cache_hits);
      QueryResult r = it->second.result;
      r.from_cache = true;
      return r;
    }
  }

  if (draw_timeout(options_.timeout_prob, rng_)) {
    ++stats_.timeouts;
    obs::metrics().add(dns_metric_ids().timeouts);
    QueryResult r;
    r.rcode = Rcode::kTimeout;
    return r;  // timeouts are not cached
  }

  QueryResult r;
  bool exists = true;
  r.records = source_.query(name, type, round, exists);
  if (!exists) {
    r.rcode = Rcode::kNxDomain;
    ++stats_.nxdomain;
    obs::metrics().add(dns_metric_ids().nxdomain);
  }

  if (options_.cache_rounds > 0) {
    cache_[cache_key(name, type)] = {round + options_.cache_rounds, r};
  }
  return r;
}

void Resolver::flush() { cache_.clear(); }

}  // namespace v6mon::dns
