#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ip/ipv6.h"
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
/// site whose Dynamics record has `step_from_path_change` relocates (new
/// hosting AS and addresses) at `step_round`, so its performance step
/// coincides with a genuine AS-path change — the correlation the paper
/// reports for a subset of its Table 3 transitions.
struct Hosting {
  topo::Asn v4_as = topo::kNoAs;
  ip::Ipv4Address v4_addr;
  topo::Asn v6_as = topo::kNoAs;
  ip::Ipv6Address v6_addr;
};

/// A site's IPv6 presence: where its AAAA record points, how its server
/// treats IPv6, and when the record exists. The catalog keeps one record
/// per site that ever gets an AAAA window (about 1% of them); every other
/// site reads as the default presence of SiteCatalog::v6_presence.
struct V6Presence {
  topo::Asn as = topo::kNoAs;  ///< AS hosting the IPv6 presence (may differ: DL).
  ip::Ipv6Address addr;
  float page_ratio = 1.0f;     ///< v6 page bytes / v4 page bytes.
  float server_factor = 1.0f;  ///< <1: the server delivers IPv6 slower.
  /// First round at which the AAAA record exists; kNever = IPv4-only.
  std::uint32_t from_round = kNever;
  /// First round at which the AAAA record is gone again (exclusive);
  /// kNever = permanent. World IPv6 Day participants that did not keep
  /// IPv6 after the event have a one-round window here.
  std::uint32_t until_round = kNever;
  bool w6d_participant = false;  ///< Advertised World IPv6 Day participation.
};

static_assert(sizeof(V6Presence) == 40, "web::V6Presence grew: check its field order");

/// A run of consecutive site ids that entered the monitored list at the
/// same round (SiteCatalog::listing_runs).
struct ListingRun {
  std::uint32_t begin = 0;  ///< First site id of the run.
  std::uint32_t end = 0;    ///< One past its last site id.
  std::uint32_t first_seen_round = 0;
  bool from_dns_cache = false;  ///< The unranked supplemental sample.
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

  // --- Listing: a function of the site id -----------------------------
  // Ids [0, initial_sites) are the ranked list from round 0; then each
  // round r = 1..num_rounds adds churn_per_round new, lower-ranked
  // entrants; the remaining ids are the unranked DNS-cache sample, listed
  // from round 0.

  /// Sites of the ranked list, churn entrants included.
  [[nodiscard]] std::size_t ranked_sites() const {
    return params_.initial_sites + params_.churn_per_round * params_.num_rounds;
  }
  /// Supplemental (unranked) sample member: the paper's ~5M-site
  /// DNS-cache sample.
  [[nodiscard]] bool from_dns_cache(const Site& s) const { return s.id >= ranked_sites(); }
  /// 1-based Alexa-style rank; 0 for the unranked supplemental sites.
  [[nodiscard]] std::uint32_t rank(const Site& s) const {
    return from_dns_cache(s) ? 0 : s.id + 1;
  }
  /// Round the site first appeared in the monitored list (churn). A
  /// division for churn entrants: loops over every site walk
  /// listing_runs() instead.
  [[nodiscard]] std::uint32_t first_seen_round(const Site& s) const {
    if (s.id < params_.initial_sites || from_dns_cache(s)) return 0;
    return static_cast<std::uint32_t>((s.id - params_.initial_sites) /
                                          params_.churn_per_round +
                                      1);
  }
  [[nodiscard]] bool in_list_at(const Site& s, std::uint32_t round) const {
    return round >= first_seen_round(s);
  }
  /// The catalog's ids as listing runs, in id order: the initial list,
  /// each round's churn entrants, then the DNS-cache sample. Empty runs
  /// are left out; at most num_rounds + 2 runs.
  [[nodiscard]] std::vector<ListingRun> listing_runs() const;

  // --- Per-site records -------------------------------------------------

  /// The site's IPv6 presence record; a site without one (IPv4-only)
  /// reads as hosted in its IPv4 AS at the zero address, with both
  /// factors 1.0, no AAAA window and no World IPv6 Day participation.
  [[nodiscard]] V6Presence v6_presence(const Site& s) const {
    if (s.v6_record == kNoV6Record) return V6Presence{s.v4_as, {}, 1.0f, 1.0f};
    return v6_records_[s.v6_record];
  }
  /// The site's IPv4 and IPv6 presences live in different ASes — the
  /// paper's "different locations" (DL) category.
  [[nodiscard]] bool different_location(const Site& s) const {
    return s.v6_record != kNoV6Record && v6_records_[s.v6_record].as != s.v4_as;
  }
  /// The site has an AAAA record at `round`.
  [[nodiscard]] bool dual_stack_at(const Site& s, std::uint32_t round) const {
    if (s.v6_record == kNoV6Record) return false;
    const V6Presence& v6 = v6_records_[s.v6_record];
    return round >= v6.from_round && round < v6.until_round;
  }
  /// Every IPv6 presence record: generated ones in site-id order, then
  /// one per grant_aaaa in grant order.
  [[nodiscard]] const std::vector<V6Presence>& v6_records() const { return v6_records_; }

  /// The site's non-stationarity record; a site without one reads as
  /// the default (no step, no trend).
  [[nodiscard]] Dynamics dynamics(const Site& s) const {
    return s.dynamics == kNoDynamics ? Dynamics{} : dynamics_[s.dynamics];
  }
  /// Every Dynamics record, in site-id order.
  [[nodiscard]] const std::vector<Dynamics>& dynamics_records() const { return dynamics_; }

  /// Hosting epoch at a round: 0 = original hosting, 1 = the relocated
  /// hosting of a `step_from_path_change` site at/after its step round.
  /// A site's addresses are constant within a hosting epoch, so the
  /// monitor's resolved-site rows are keyed on it.
  [[nodiscard]] std::uint8_t hosting_epoch(const Site& s, std::uint32_t round) const {
    if (s.dynamics == kNoDynamics) return 0;
    const Dynamics& d = dynamics_[s.dynamics];
    const bool relocated =
        d.step_round != kNever && d.step_from_path_change && round >= d.step_round;
    return relocated ? 1 : 0;
  }
  /// Server performance multiplier at a given round: non-stationarity only.
  [[nodiscard]] double server_multiplier_at(const Site& s, std::uint32_t round) const {
    if (s.dynamics == kNoDynamics) return 1.0;
    const Dynamics& d = dynamics_[s.dynamics];
    double m = 1.0;
    if (d.step_round != kNever && round >= d.step_round) m *= d.step_factor;
    if (d.trend_per_round != 0.0f) {
      const std::uint32_t first_seen = first_seen_round(s);
      if (round > first_seen) {
        m *= std::pow(1.0 + static_cast<double>(d.trend_per_round),
                      static_cast<double>(round - first_seen));
      }
    }
    return m;
  }

  /// Effective hosting of a site at a round (applies relocations).
  [[nodiscard]] Hosting hosting_at(const Site& s, std::uint32_t round) const;

  /// Bytes the catalog holds: its sites, IPv6 presence and Dynamics
  /// records and relocation entries, by size (not capacity).
  [[nodiscard]] std::size_t bytes() const;

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
  /// record from `from_round` on, hosted in `v6_as` at `v6_addr`; its
  /// IPv6 presence record, window included, is appended. Its Dynamics
  /// record (if any) is untouched.
  /// Rejects sites that already have (or ever had) an IPv6 window — the
  /// evolution generator only selects IPv4-only sites, and double grants
  /// would silently rewrite history the DNS layer already served.
  void grant_aaaa(std::uint32_t site_id, std::uint32_t from_round, topo::Asn v6_as,
                  const ip::Ipv6Address& v6_addr, float v6_server_factor);

 private:
  std::vector<Site> sites_;
  std::vector<V6Presence> v6_records_;
  std::vector<Dynamics> dynamics_;
  std::unordered_map<std::uint32_t, Hosting> relocations_;
  CatalogParams params_;
};

}  // namespace v6mon::web
