#include "analysis/longitudinal.h"

#include <algorithm>

#include "util/contracts.h"

namespace v6mon::analysis {

util::TextTable LongitudinalView::table() const {
  util::TextTable t({"epoch", "rounds", "listed", "dual", "dual%", "SL", "DL",
                     "SP", "DP"});
  for (const EpochWindow& w : windows) {
    t.add_row({std::to_string(w.epoch),
               std::to_string(w.from_round) + "-" + std::to_string(w.to_round - 1),
               util::TextTable::count(w.listed), util::TextTable::count(w.dual),
               util::TextTable::percent(w.dual_share(), 2),
               util::TextTable::count(w.sl()), util::TextTable::count(w.dl),
               util::TextTable::count(w.sp), util::TextTable::count(w.dp)});
  }
  return t;
}

LongitudinalView longitudinal_view(core::ObservationView view,
                                   std::span<const std::uint32_t> epoch_boundaries) {
  V6MON_REQUIRE(view.valid(), "longitudinal view needs a finalized results view");
  const auto total_rounds = static_cast<std::uint32_t>(view.rounds());

  LongitudinalView out;

  // ---- Window layout: [0,b1), [b1,b2), ..., [bk, total) ----------------
  std::uint32_t from = 0;
  std::uint32_t epoch = 0;
  for (const std::uint32_t b : epoch_boundaries) {
    V6MON_REQUIRE(b > from || (epoch == 0 && b == 0),
                  "epoch boundaries must be ascending");
    if (b >= total_rounds) break;
    EpochWindow w;
    w.epoch = epoch++;
    w.from_round = from;
    w.to_round = b;
    if (w.to_round > w.from_round) out.windows.push_back(w);
    from = b;
  }
  {
    EpochWindow w;
    w.epoch = epoch;
    w.from_round = from;
    w.to_round = total_rounds;
    if (w.to_round > w.from_round) out.windows.push_back(w);
  }

  // ---- Adoption curves from the per-round counters ---------------------
  for (std::uint32_t r = 0; r < total_rounds; ++r) {
    const core::RoundCounters& rc = view.round_counters(r);
    if (rc.listed == 0) continue;
    out.adoption.push_back(r, static_cast<double>(rc.dual) /
                                  static_cast<double>(rc.listed));
    out.aaaa_count.push_back(r, static_cast<double>(rc.dual));
  }
  for (EpochWindow& w : out.windows) {
    // The adoption state the window *ends* on — the last round with data.
    for (std::uint32_t r = w.to_round; r-- > w.from_round;) {
      const core::RoundCounters& rc = view.round_counters(r);
      if (rc.listed == 0) continue;
      w.listed = rc.listed;
      w.dual = rc.dual;
      break;
    }
  }

  // ---- Per-window category tallies -------------------------------------
  // Each site contributes its last measured observation per window (the
  // settled post-epoch routing state): different origin ASes -> DL; same
  // AS with equal / differing paths -> SP / DP. Sites without both
  // origins (no AS_PATH feed, failed lookups) are skipped, as in the
  // paper. Unlike category_of, which reads a site's modal paths, a
  // same-AS site counts only when both families have an AS path: a local
  // or half-local site is in no window's SP or DP tally.
  for (const std::uint32_t site : view.site_ids()) {
    const core::SiteSeries s = view.series(site);
    std::size_t i = 0;
    for (EpochWindow& w : out.windows) {
      // Series are sorted by round, so one forward pass covers all
      // windows; remember the last qualifying row's routes inside this
      // window (no origin: no row qualified).
      core::Route v4, v6;
      for (; i < s.size() && s[i].round < w.to_round; ++i) {
        const core::Observation& o = s[i];
        if (o.round < w.from_round || o.status != core::MonitorStatus::kMeasured) continue;
        const core::RoutePair pair = view.pair(o.route_pair);
        const core::Route r4 = view.route(pair.v4);
        const core::Route r6 = view.route(pair.v6);
        if (r4.origin != topo::kNoAs && r6.origin != topo::kNoAs) {
          v4 = r4;
          v6 = r6;
        }
      }
      if (v4.origin == topo::kNoAs) continue;
      if (v4.origin != v6.origin) {
        ++w.dl;
      } else if (v4.path != core::kNoPath && v6.path != core::kNoPath) {
        if (v4.path == v6.path) {
          ++w.sp;
        } else {
          ++w.dp;
        }
      }
    }
  }
  return out;
}

}  // namespace v6mon::analysis
