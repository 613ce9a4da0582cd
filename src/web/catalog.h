#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topo/as_graph.h"
#include "util/rng.h"
#include "web/site.h"

namespace v6mon::web {

/// Final (end-of-campaign) probability that a site in each Alexa rank
/// bucket is IPv6-accessible. Shapes paper Fig. 3a: higher-ranked sites
/// adopt IPv6 much more often.
struct RankAdoption {
  // Adoption propensities per rank bucket. Adopters deliberately pick
  // IPv6-capable hosting (see CatalogParams::adopter_sticks_with_v4_host),
  // so effective accessibility lands close to these values — near the
  // paper's Fig. 3a (top10 ~10%, overall ~1%).
  double top10 = 0.085;
  double top100 = 0.045;
  double top1k = 0.021;
  double top10k = 0.025;
  double top100k = 0.017;
  double rest = 0.012;

  [[nodiscard]] double for_rank(std::uint32_t rank) const;
};

/// Workload-generation knobs.
struct CatalogParams {
  std::size_t initial_sites = 200'000;
  std::size_t churn_per_round = 1'500;  ///< New list entrants per round.
  std::size_t num_rounds = 40;
  std::size_t dns_cache_sites = 0;  ///< Unranked supplemental sample size.

  RankAdoption adoption;
  /// Relative hazard of *becoming* IPv6-accessible per round, index 0 =
  /// "already accessible before the campaign". Spikes model the IANA
  /// depletion announcement and World IPv6 Day jumps of paper Fig. 1.
  /// Empty = uniform.
  std::vector<double> round_weights;

  /// Probability a site serves IPv4 from a CDN (rank-dependent: CDN
  /// customers skew to popular sites). A CDN-served site that adopts IPv6
  /// hosts it at a non-CDN origin — the DL category with a fast IPv4 side.
  double cdn_prob_top10k = 0.18;
  double cdn_prob_rest = 0.03;
  /// A CDN-served adopter stands up an IPv6 origin with this probability
  /// (running a separate IPv6 presence is extra work); otherwise it stays
  /// IPv4-only for now.
  double cdn_v6_origin_prob = 0.5;
  /// Probability a dual-stack non-CDN site still hosts IPv6 in a
  /// different AS (multi-provider setups).
  double dl_fraction = 0.01;
  /// Adopters choose IPv6-capable hosting; with this probability the site
  /// is stuck with its (IPv6-less) incumbent host instead.
  double adopter_sticks_with_v4_host = 0.10;
  /// A stuck adopter hosts IPv6 at a different origin with this
  /// probability; otherwise it stays IPv4-only for now.
  double dl_fallback_prob = 0.08;
  /// DL sites serve IPv4 from CDN-grade infrastructure while IPv6 sits at
  /// a weaker origin: the IPv6 delivery rate is scaled by a draw from
  /// this range (paper Table 6: IPv4 >= IPv6 for ~90% of DL sites).
  double dl_v6_origin_factor_lo = 0.55;
  double dl_v6_origin_factor_hi = 0.90;
  /// Server-side IPv6 quality clusters by *hosting AS* (the paper's
  /// reading of its zero-modes: "poor IPv6 support in a majority of
  /// servers for sites in that AS"). A bad-host AS penalizes most of its
  /// sites; a good-host AS almost none. Magnitudes sit clearly below the
  /// 10% comparability band so a penalized server reads as penalized from
  /// every vantage point (cross-checks agree, paper Table 8).
  double v6_bad_host_as_prob = 0.15;
  double v6_penalty_prob_bad_host = 0.75;
  double v6_penalty_prob_good_host = 0.04;
  double v6_server_penalty_lo = 0.30;
  double v6_server_penalty_hi = 0.70;
  /// Probability the IPv6 page differs from the IPv4 page by more than
  /// the paper's 6% identity threshold.
  double diff_content_prob = 0.03;

  double page_median_kb = 30.0;
  double page_sigma = 1.0;
  double page_min_kb = 2.0;
  double page_max_kb = 1500.0;
  double server_rate_median_kBps = 95.0;
  double server_rate_sigma = 0.45;

  /// Non-stationarity injection rates (paper Table 3).
  double step_prob = 0.05;
  double step_path_change_fraction = 0.30;
  double trend_prob = 0.06;
  double trend_magnitude = 0.012;  ///< Per-round relative drift.

  /// World IPv6 Day round (kNever to disable) and participation odds for
  /// top-1k / other ranked sites.
  std::uint32_t w6d_round = kNever;
  double w6d_prob_top1k = 0.25;
  double w6d_prob_other = 0.001;
  /// Fraction of event-only participants that kept their AAAA afterwards
  /// (most famously removed it again until 2012's World IPv6 Launch).
  double w6d_keep_prob = 0.10;

  /// Zipf shape for hosting concentration (how many sites the biggest
  /// hosting ASes attract).
  double hosting_zipf_s = 1.05;
};

/// Where a site's presences live at a given round. Usually constant; a
/// site flagged `step_from_path_change` relocates (new hosting AS and
/// addresses) at `step_round`, so its performance step coincides with a
/// genuine AS-path change — the correlation the paper reports for a
/// subset of its Table 3 transitions.
struct Hosting {
  topo::Asn v4_as = topo::kNoAs;
  ip::Ipv4Address v4_addr;
  topo::Asn v6_as = topo::kNoAs;
  ip::Ipv6Address v6_addr;
};

/// Exact inverse-CDF search over a non-decreasing table of cumulative
/// weights: `find(u)` is `std::lower_bound(cumulative, u) - begin` for
/// every u, but a guide table of equal-width buckets over [0, total]
/// narrows the search to the few entries whose bucket u falls in. The
/// narrowed answer is accepted only if the entry before it lies below u
/// (so it is the first entry >= u); otherwise the search falls back to a
/// full lower_bound. Floating-point rounding at bucket edges can cost a
/// fallback, never a different answer.
class CumulativeIndex {
 public:
  /// `cumulative` non-empty and non-decreasing, from >= 0 to its total.
  explicit CumulativeIndex(std::vector<double> cumulative);

  /// The index std::lower_bound returns for `u`, which must lie in
  /// [0, total()].
  [[nodiscard]] std::size_t find(double u) const {
    const double* c = cumulative_.data();
    const auto bucket =
        std::min(static_cast<std::size_t>(u * scale_), guide_.size() - 2);
    const std::size_t lo = guide_[bucket];
    const std::size_t hi = guide_[bucket + 1];
    const auto i = static_cast<std::size_t>(std::lower_bound(c + lo, c + hi + 1, u) - c);
    if (i <= hi && (i == 0 || c[i - 1] < u)) return i;
    return static_cast<std::size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) - cumulative_.begin());
  }

  [[nodiscard]] double total() const { return cumulative_.back(); }

 private:
  std::vector<double> cumulative_;
  /// guide_[b] = lower_bound of bucket b's lower edge, capped at the last
  /// entry; K + 1 entries for K buckets.
  std::vector<std::uint32_t> guide_;
  double scale_ = 0.0;  ///< K / total: u * scale_ is u's bucket.
};

/// The monitored-site universe: an Alexa-like ranked list plus optional
/// unranked supplemental sites, with IPv6 adoption unfolding over rounds.
class SiteCatalog {
 public:
  /// Draws every site from `rng.child("sites")` in site-id order, in
  /// blocks. Each site's lognormal page size and server rate are
  /// finished later from the polar pairs its draws accepted: at
  /// `threads` = 1 right after its block, at any other value (0 =
  /// hardware) on one worker thread while the next block is drawn. The
  /// catalog is the same at any `threads`.
  static SiteCatalog generate(const topo::AsGraph& graph, const CatalogParams& params,
                              util::Rng& rng, std::size_t threads = 1);

  /// Effective hosting of a site at a round (applies relocations).
  [[nodiscard]] Hosting hosting_at(const Site& s, std::uint32_t round) const;

  /// The relocation record for a site, if any.
  [[nodiscard]] const Hosting* relocation(std::uint32_t site_id) const;
  /// Every relocation record, by site id (unordered).
  [[nodiscard]] const std::unordered_map<std::uint32_t, Hosting>& relocations() const {
    return relocations_;
  }

  [[nodiscard]] std::size_t size() const { return sites_.size(); }
  [[nodiscard]] const Site& site(std::size_t i) const { return sites_.at(i); }
  [[nodiscard]] const std::vector<Site>& sites() const { return sites_; }
  [[nodiscard]] const CatalogParams& params() const { return params_; }

  /// Fraction of listed sites that are IPv6-accessible at `round`
  /// (ranked list only — the Fig. 1 series).
  [[nodiscard]] double reachability_at(std::uint32_t round) const;

  /// Count of listed ranked sites at a round (the Fig. 1 denominator).
  [[nodiscard]] std::size_t listed_at(std::uint32_t round) const;

  /// Epoch engine (kSiteGainsAaaa): an IPv4-only site stands up an AAAA
  /// record from `from_round` on, hosted in `v6_as` at `v6_addr`.
  /// Rejects sites that already have (or ever had) an IPv6 window — the
  /// evolution generator only selects IPv4-only sites, and double grants
  /// would silently rewrite history the DNS layer already served.
  void grant_aaaa(std::uint32_t site_id, std::uint32_t from_round, topo::Asn v6_as,
                  const ip::Ipv6Address& v6_addr, float v6_server_factor);

 private:
  std::vector<Site> sites_;
  std::unordered_map<std::uint32_t, Hosting> relocations_;
  CatalogParams params_;
};

}  // namespace v6mon::web
