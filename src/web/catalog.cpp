#include "web/catalog.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "core/thread_pool.h"
#include "ip/allocator.h"
#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::web {

double RankAdoption::for_rank(std::uint32_t rank) const {
  if (rank == 0) return rest;  // unranked supplemental sites
  if (rank <= 10) return top10;
  if (rank <= 100) return top100;
  if (rank <= 1'000) return top1k;
  if (rank <= 10'000) return top10k;
  if (rank <= 100'000) return top100k;
  return rest;
}

CumulativeIndex::CumulativeIndex(std::vector<double> cumulative)
    : cumulative_(std::move(cumulative)) {
  if (cumulative_.empty()) throw ConfigError("cumulative weight table is empty");
  // Four buckets per entry keep the heavy Zipf tail of the hosting table
  // to a few entries per bucket.
  const std::size_t n = cumulative_.size();
  const std::size_t buckets = 4 * n;
  const double total = cumulative_.back();
  scale_ = total > 0.0 ? static_cast<double>(buckets) / total : 0.0;
  guide_.resize(buckets + 1);
  std::size_t i = 0;
  for (std::size_t b = 0; b <= buckets; ++b) {
    const double edge = total * (static_cast<double>(b) / static_cast<double>(buckets));
    while (i + 1 < n && cumulative_[i] < edge) ++i;
    guide_[b] = static_cast<std::uint32_t>(i);
  }
}

namespace {

/// One inverse-CDF draw: the index of the first cumulative weight at or
/// above a uniform draw over [0, total).
std::size_t draw_index(const CumulativeIndex& index, util::Rng& rng) {
  return index.find(rng.uniform(0.0, index.total()));
}

/// Hosting candidates: the stubs that are not CDNs, or every AS on a
/// degenerate (test) graph without such stubs.
std::vector<topo::Asn> hosting_candidates(const topo::AsGraph& graph) {
  std::vector<topo::Asn> out;
  for (std::size_t i = 0; i < graph.num_ases(); ++i) {
    const topo::AsNode& n = graph.node(static_cast<topo::Asn>(i));
    if (!n.is_cdn && n.tier == topo::Tier::kStub) out.push_back(n.asn);
  }
  if (out.empty()) {
    for (std::size_t i = 0; i < graph.num_ases(); ++i) {
      out.push_back(static_cast<topo::Asn>(i));
    }
  }
  if (out.empty()) throw ConfigError("no hosting candidates in graph");
  return out;
}

/// Cumulative Zipf weights 1/i^s over ranks 1..n.
std::vector<double> zipf_cumulative(std::size_t n, double s) {
  std::vector<double> out;
  out.reserve(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    out.push_back(total);
  }
  return out;
}

/// Zipf-weighted hosting AS sampler: candidate ASes (stubs, plus transits
/// with reduced weight) ordered by a random shuffle, with weight 1/i^s —
/// concentrating sites on a few big hosting providers.
class HostSampler {
 public:
  HostSampler(const topo::AsGraph& graph, double zipf_s, util::Rng& rng)
      : candidates_(hosting_candidates(graph)),
        index_(zipf_cumulative(candidates_.size(), zipf_s)) {
    for (std::size_t i = 0; i < graph.num_ases(); ++i) {
      const topo::AsNode& n = graph.node(static_cast<topo::Asn>(i));
      if (n.is_cdn) cdns_.push_back(n.asn);
    }
    rng.shuffle(candidates_);
  }

  topo::Asn draw(util::Rng& rng) const { return candidates_[draw_index(index_, rng)]; }

  /// An off-AS IPv6 origin host. Early IPv6 hosting was concentrated in a
  /// handful of colos, so draws come from a small fixed pool of
  /// IPv6-capable ASes (often far from the site's IPv4 presence) — which
  /// is why the paper's DL sites see slower IPv6.
  topo::Asn draw_v6(const topo::AsGraph& graph, topo::Asn avoid,
                    util::Rng& rng) const {
    if (v6_candidates_.empty()) {
      for (topo::Asn a : candidates_) {
        if (graph.node(a).has_v6) v6_candidates_.push_back(a);
      }
      if (v6_candidates_.empty()) return topo::kNoAs;
      if (v6_candidates_.size() > kV6OriginPool) v6_candidates_.resize(kV6OriginPool);
    }
    for (int attempt = 0; attempt < 8; ++attempt) {
      const topo::Asn a = rng.pick(v6_candidates_);
      if (a != avoid) return a;
    }
    return v6_candidates_.front() != avoid ? v6_candidates_.front() : topo::kNoAs;
  }

  static constexpr std::size_t kV6OriginPool = 12;

  [[nodiscard]] bool has_cdns() const { return !cdns_.empty(); }
  topo::Asn draw_cdn(util::Rng& rng) const { return rng.pick(cdns_); }

 private:
  std::vector<topo::Asn> candidates_;
  std::vector<topo::Asn> cdns_;
  CumulativeIndex index_;
  mutable std::vector<topo::Asn> v6_candidates_;
};

/// The draws a site's two lognormals consumed, kept for the value pass.
struct SitePolar {
  util::PolarPair page;
  util::PolarPair rate;
};

/// One block of the serial pass's output: its sites, every field but the
/// two lognormals, and the pairs those come from.
struct SiteBlock {
  std::vector<Site> sites;
  std::vector<SitePolar> polar;
};

/// Sites per block. Two blocks (about 475 KB) are the only side buffers:
/// 8,192-site blocks raised the peak RSS of a scale-0.25 study by 0.9 MB.
constexpr std::size_t kBlockSites = 2'048;

}  // namespace

SiteCatalog SiteCatalog::generate(const topo::AsGraph& graph,
                                  const CatalogParams& params, util::Rng& rng,
                                  std::size_t threads) {
  SiteCatalog cat;
  cat.params_ = params;

  util::Rng site_rng = rng.child("sites");
  HostSampler hosts(graph, params.hosting_zipf_s, site_rng);

  std::vector<double> weights = params.round_weights;
  if (weights.empty()) weights.assign(params.num_rounds + 1, 1.0);
  std::vector<double> cumulative(weights.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0) throw ConfigError("round_weights must be non-negative");
    acc += weights[i];
    cumulative[i] = acc;
  }
  if (acc <= 0.0) throw ConfigError("round_weights sum to zero");
  // The round at which an adopting site becomes IPv6-accessible. Index 0
  // means "before the campaign"; the site's v6_from_round is then its
  // first_seen_round.
  const CumulativeIndex adoption_rounds(std::move(cumulative));

  const std::size_t initial = params.initial_sites;
  const std::size_t churned = params.churn_per_round * params.num_rounds;
  const std::size_t total = initial + churned + params.dns_cache_sites;
  cat.sites_.reserve(total);

  // Per-AS host counters so each site gets its own address within its
  // AS's block (wrapping when a hosting AS is very large).
  std::vector<std::uint32_t> v4_host_counter(graph.num_ases(), 10);
  std::vector<std::uint32_t> v6_host_counter(graph.num_ases(), 10);
  // Per-hosting-AS IPv6 server quality: a function of the AS alone (its
  // own child stream), decided on first use. -1 = not yet drawn.
  std::vector<std::int8_t> bad_v6_host(graph.num_ases(), -1);
  auto is_bad_v6_host = [&](topo::Asn asn) {
    std::int8_t& verdict = bad_v6_host[asn];
    if (verdict < 0) {
      verdict = site_rng.child("v6-host-quality", asn).chance(params.v6_bad_host_as_prob)
                    ? 1
                    : 0;
    }
    return verdict == 1;
  };

  // --- Serial stream pass ----------------------------------------------
  // Every draw of the site stream, in site order. The two lognormals are
  // the exception: their polar loops run here (they decide how many words
  // the site consumes), but only the accepted pairs are kept; the value
  // pass below turns them into page_kb and server_rate_kBps.
  auto make_site = [&](Site& s, SitePolar& polar) {
    const std::uint32_t rank = s.rank;
    const std::uint32_t first_seen = s.first_seen_round;
    const bool from_cache = s.from_dns_cache;

    // Adoption is decided up front: adopters pick hosting accordingly.
    const bool adopter = site_rng.chance(params.adoption.for_rank(rank));

    // CDN customers serve IPv4 from the CDN's AS.
    const double cdn_prob = (rank >= 1 && rank <= 10'000) ? params.cdn_prob_top10k
                                                          : params.cdn_prob_rest;
    const bool on_cdn = hosts.has_cdns() && site_rng.chance(cdn_prob);
    s.v4_as = on_cdn ? hosts.draw_cdn(site_rng) : hosts.draw(site_rng);
    auto native_v6_host = [&graph](topo::Asn asn) {
      const topo::AsNode& n = graph.node(asn);
      // 6to4-announced space is tunnel-reached; an IPv6-minded site shops
      // for *native* IPv6 hosting.
      return n.has_v6 &&
             (n.v6_prefixes.empty() || !n.v6_prefixes.front().network().is_6to4());
    };
    if (adopter && !on_cdn && !native_v6_host(s.v4_as) &&
        !site_rng.chance(params.adopter_sticks_with_v4_host)) {
      for (int attempt = 0; attempt < 8 && !native_v6_host(s.v4_as); ++attempt) {
        s.v4_as = hosts.draw(site_rng);
      }
    }
    const topo::AsNode& host = graph.node(s.v4_as);
    if (host.v4_prefixes.empty()) {
      throw ConfigError("catalog requires an address plan (run assign_addresses)");
    }
    const ip::Ipv4Prefix& v4p = host.v4_prefixes.front();
    const std::uint64_t v4_cap = 1ULL << (32 - v4p.length());
    s.v4_addr = ip::offset_address(v4p.network(),
                                   v4_host_counter[s.v4_as]++ % v4_cap, 32);
    s.v6_as = s.v4_as;

    polar.page = site_rng.polar_pair();
    polar.rate = site_rng.polar_pair();

    // --- IPv6 adoption -------------------------------------------------
    if (adopter) {
      const auto draw = static_cast<std::uint32_t>(draw_index(adoption_rounds, site_rng));
      s.v6_from_round = draw == 0 ? first_seen : std::max(first_seen, draw);

      // Hosting of the IPv6 presence: same AS when it can, else (for a
      // minority) a different IPv6-capable AS -> DL category; the rest of
      // the stranded adopters simply stay IPv4-only for now. CDN-served
      // sites always host IPv6 at an origin (CDNs have no IPv6 yet).
      const bool own_as_can = host.has_v6 && !host.v6_prefixes.empty();
      const bool force_dl = site_rng.chance(params.dl_fraction);
      const double stranded_fallback =
          on_cdn ? params.cdn_v6_origin_prob : params.dl_fallback_prob;
      if (!own_as_can && !site_rng.chance(stranded_fallback)) {
        s.v6_from_round = kNever;
      } else if (!own_as_can || force_dl) {
        const topo::Asn alt = hosts.draw_v6(graph, s.v4_as, site_rng);
        if (alt == topo::kNoAs) {
          s.v6_from_round = kNever;  // nowhere to host IPv6
        } else {
          s.v6_as = alt;
          // CDN-grade IPv4 vs origin-grade IPv6 delivery.
          s.v6_server_factor = static_cast<float>(
              s.v6_server_factor * site_rng.uniform(params.dl_v6_origin_factor_lo,
                                                    params.dl_v6_origin_factor_hi));
        }
      }
      if (s.v6_from_round != kNever) {
        const topo::AsNode& v6host = graph.node(s.v6_as);
        const ip::Ipv6Prefix& v6p = v6host.v6_prefixes.front();
        s.v6_addr = ip::offset_address(v6p.network(), v6_host_counter[s.v6_as]++, 128);
        const double penalty_prob = is_bad_v6_host(s.v6_as)
                                        ? params.v6_penalty_prob_bad_host
                                        : params.v6_penalty_prob_good_host;
        if (site_rng.chance(penalty_prob)) {
          s.v6_server_factor = static_cast<float>(
              s.v6_server_factor * site_rng.uniform(params.v6_server_penalty_lo,
                                                    params.v6_server_penalty_hi));
        }
        if (site_rng.chance(params.diff_content_prob)) {
          s.v6_page_ratio =
              static_cast<float>(site_rng.chance(0.5) ? site_rng.uniform(0.3, 0.9)
                                                      : site_rng.uniform(1.12, 2.0));
        }
      }
    }

    // --- Non-stationarity ------------------------------------------------
    if (site_rng.chance(params.step_prob) && params.num_rounds > 4) {
      s.step_round = first_seen + static_cast<std::uint32_t>(site_rng.uniform_u64(
                                      2, params.num_rounds - 2));
      s.step_factor = static_cast<float>(
          site_rng.chance(0.5) ? site_rng.uniform(1.5, 3.0) : site_rng.uniform(0.3, 0.65));
      s.step_from_path_change = site_rng.chance(params.step_path_change_fraction);
    } else if (site_rng.chance(params.trend_prob)) {
      s.trend_per_round = static_cast<float>(
          (site_rng.chance(0.5) ? 1.0 : -1.0) * params.trend_magnitude *
          site_rng.uniform(0.6, 1.6));
    }

    // --- World IPv6 Day ---------------------------------------------------
    // Only sites already in the list by the event can have participated.
    if (params.w6d_round != kNever && !from_cache &&
        first_seen <= params.w6d_round) {
      const double p = (rank >= 1 && rank <= 1000) ? params.w6d_prob_top1k
                                                   : params.w6d_prob_other;
      if (site_rng.chance(p)) {
        // Participants made sure both network presence and servers were
        // fully IPv6-qualified for the event (hosting IPv6 at an origin
        // when their own/CDN network could not carry it).
        s.w6d_participant = true;
        if (s.v6_from_round == kNever || s.v6_from_round > params.w6d_round) {
          if (s.v6_as == s.v4_as && !graph.node(s.v4_as).has_v6) {
            // A would-be participant without IPv6-capable infrastructure
            // only sometimes stands up an off-AS origin for the event.
            const topo::Asn alt = site_rng.chance(0.4)
                                      ? hosts.draw_v6(graph, s.v4_as, site_rng)
                                      : topo::kNoAs;
            if (alt != topo::kNoAs) s.v6_as = alt;
          }
          if (graph.node(s.v6_as).has_v6) {
            const ip::Ipv6Prefix& v6p = graph.node(s.v6_as).v6_prefixes.front();
            s.v6_addr =
                ip::offset_address(v6p.network(), v6_host_counter[s.v6_as]++, 128);
            s.v6_from_round = std::max(first_seen, params.w6d_round);
            // Most event-only participants pulled the AAAA again after
            // June 8; only a minority kept it.
            if (!site_rng.chance(params.w6d_keep_prob)) {
              s.v6_until_round = params.w6d_round + 1;
            }
          } else {
            s.w6d_participant = false;
          }
        }
        if (s.w6d_participant) s.v6_server_factor = 1.0f;
      }
    }
  };

  // Relocation for path-change step sites: new hosting ASes + addresses
  // effective from step_round.
  auto maybe_relocate = [&](const Site& s) {
    if (s.step_round == kNever || !s.step_from_path_change) return;
    Hosting h;
    h.v4_as = hosts.draw(site_rng);
    const topo::AsNode& nhost = graph.node(h.v4_as);
    const std::uint64_t cap = 1ULL << (32 - nhost.v4_prefixes.front().length());
    h.v4_addr = ip::offset_address(nhost.v4_prefixes.front().network(),
                                   v4_host_counter[h.v4_as]++ % cap, 32);
    h.v6_as = s.v6_as;
    h.v6_addr = s.v6_addr;
    if (s.v6_from_round != kNever) {
      const topo::Asn alt = graph.node(h.v4_as).has_v6
                                ? h.v4_as
                                : hosts.draw_v6(graph, h.v4_as, site_rng);
      if (alt != topo::kNoAs) {
        h.v6_as = alt;
        h.v6_addr = ip::offset_address(
            graph.node(alt).v6_prefixes.front().network(), v6_host_counter[alt]++, 128);
      }
    }
    cat.relocations_.emplace(s.id, h);
  };

  // --- Value pass --------------------------------------------------------
  // Pure functions of each site's recorded pairs, through the same
  // expression Rng::lognormal_median uses: bit-identical to drawing them
  // in place, on whichever thread. Appending the finished block is also
  // where the catalog's pages are first touched.
  if (total > 0) {
    V6MON_REQUIRE(params.page_median_kb > 0.0 && params.server_rate_median_kBps > 0.0);
  }
  const double page_mu = std::log(params.page_median_kb);
  const double rate_mu = std::log(params.server_rate_median_kBps);
  auto finish_block = [&cat, &params, page_mu, rate_mu](const SiteBlock& block) {
    for (std::size_t j = 0; j < block.sites.size(); ++j) {
      const SitePolar& p = block.polar[j];
      Site& s = cat.sites_.emplace_back(block.sites[j]);
      s.page_kb = static_cast<float>(
          std::clamp(util::lognormal_of(p.page, page_mu, params.page_sigma),
                     params.page_min_kb, params.page_max_kb));
      s.server_rate_kBps = static_cast<float>(
          util::lognormal_of(p.rate, rate_mu, params.server_rate_sigma));
    }
  };

  // The serial pass fills one block while a worker finishes the other:
  // block k's value pass overlaps block k + 1's draws. One worker keeps
  // up (finishing a site costs less than drawing it). Without a worker
  // (threads = 1, or a catalog of one block) each block finishes inline.
  std::array<SiteBlock, 2> blocks;
  for (SiteBlock& b : blocks) {
    b.sites.reserve(std::min(total, kBlockSites));
    b.polar.reserve(std::min(total, kBlockSites));
  }
  // Declared after everything its task reads, so an exception thrown by
  // the serial pass joins the worker before those are destroyed.
  std::optional<core::ThreadPool> finisher;
  if (total > kBlockSites && core::resolve_threads(threads) > 1) finisher.emplace(1);

  for (std::size_t begin = 0, k = 0; begin < total; begin += kBlockSites, ++k) {
    SiteBlock& block = blocks[k % 2];
    block.sites.clear();
    block.polar.clear();
    const std::size_t end = std::min(total, begin + kBlockSites);
    for (std::size_t i = begin; i < end; ++i) {
      // Ranked list, then each round's churn entrants (new, low-ranked
      // list members), then the unranked "DNS cache" sample.
      Site& s = block.sites.emplace_back();
      s.id = static_cast<std::uint32_t>(i);
      if (i < initial) {
        s.rank = s.id + 1;
      } else if (i < initial + churned) {
        s.rank = s.id + 1;
        s.first_seen_round =
            static_cast<std::uint32_t>((i - initial) / params.churn_per_round + 1);
      } else {
        s.from_dns_cache = true;
      }
      make_site(s, block.polar.emplace_back());
      maybe_relocate(s);
    }
    if (!finisher) {
      finish_block(block);
      continue;
    }
    // Block k - 1 is finished once the worker is idle; the next pass
    // then refills its buffers.
    finisher->wait_idle();
    finisher->submit([&finish_block, &block] { finish_block(block); });
  }
  if (finisher) finisher->wait_idle();
  return cat;
}

Hosting SiteCatalog::hosting_at(const Site& s, std::uint32_t round) const {
  if (s.hosting_epoch(round) == 1) {
    const auto it = relocations_.find(s.id);
    if (it != relocations_.end()) return it->second;
  }
  return Hosting{s.v4_as, s.v4_addr, s.v6_as, s.v6_addr};
}

const Hosting* SiteCatalog::relocation(std::uint32_t site_id) const {
  const auto it = relocations_.find(site_id);
  return it == relocations_.end() ? nullptr : &it->second;
}

double SiteCatalog::reachability_at(std::uint32_t round) const {
  std::size_t listed = 0, v6 = 0;
  for (const Site& s : sites_) {
    if (s.from_dns_cache || !s.in_list_at(round)) continue;
    ++listed;
    if (s.dual_stack_at(round)) ++v6;
  }
  return listed == 0 ? 0.0 : static_cast<double>(v6) / static_cast<double>(listed);
}

std::size_t SiteCatalog::listed_at(std::uint32_t round) const {
  std::size_t listed = 0;
  for (const Site& s : sites_) {
    if (!s.from_dns_cache && s.in_list_at(round)) ++listed;
  }
  return listed;
}

void SiteCatalog::grant_aaaa(std::uint32_t site_id, std::uint32_t from_round,
                             topo::Asn v6_as, const ip::Ipv6Address& v6_addr,
                             float v6_server_factor) {
  if (site_id >= sites_.size()) throw ConfigError("grant_aaaa: site id out of range");
  Site& s = sites_[site_id];
  if (s.v6_from_round != kNever) {
    throw ConfigError("grant_aaaa: site " + std::to_string(site_id) +
                      " already has an IPv6 window");
  }
  if (v6_as == topo::kNoAs) throw ConfigError("grant_aaaa: invalid hosting AS");
  s.v6_from_round = from_round;
  s.v6_until_round = kNever;
  s.v6_as = v6_as;
  s.v6_addr = v6_addr;
  s.v6_server_factor = v6_server_factor;
}

}  // namespace v6mon::web
