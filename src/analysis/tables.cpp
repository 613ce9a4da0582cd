#include "analysis/tables.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <set>

#include "util/stats.h"

namespace v6mon::analysis {

using util::TextTable;

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

std::vector<Fig1Point> fig1_series(const web::SiteCatalog& catalog,
                                   std::uint32_t num_rounds) {
  // One pass over the ranked list's listing runs into per-round
  // difference arrays, then a prefix sum: O(sites + rounds). Each run adds
  // its size at its first listed round; each site with an AAAA record adds
  // its window from the round it is both listed and dual-stack. The counts
  // equal those of SiteCatalog::reachability_at / listed_at, so the ratios
  // are the same doubles. 64-bit indices keep kNever + 1 from wrapping.
  const std::uint64_t end = std::uint64_t{num_rounds} + 1;
  std::vector<std::int64_t> listed_diff(end + 1, 0), v6_diff(end + 1, 0);
  const std::vector<web::Site>& sites = catalog.sites();
  const std::vector<web::V6Presence>& records = catalog.v6_records();
  for (const web::ListingRun& run : catalog.listing_runs()) {
    if (run.from_dns_cache) continue;
    if (run.first_seen_round < end) listed_diff[run.first_seen_round] += run.end - run.begin;
    for (std::uint32_t id = run.begin; id < run.end; ++id) {
      if (sites[id].v6_record == web::kNoV6Record) continue;
      const web::V6Presence& v6 = records[sites[id].v6_record];
      const std::uint64_t lo = std::max(run.first_seen_round, v6.from_round);
      const std::uint64_t hi = std::min(std::uint64_t{v6.until_round}, end);
      if (lo >= hi) continue;
      ++v6_diff[lo];
      --v6_diff[hi];
    }
  }
  std::vector<Fig1Point> out;
  out.reserve(end);
  std::int64_t listed = 0, v6 = 0;
  for (std::uint32_t r = 0; r <= num_rounds; ++r) {
    listed += listed_diff[r];
    v6 += v6_diff[r];
    const double reach =
        listed == 0 ? 0.0 : static_cast<double>(v6) / static_cast<double>(listed);
    out.push_back({r, reach, static_cast<std::size_t>(listed)});
  }
  return out;
}

util::TextTable fig1_table(const std::vector<Fig1Point>& series) {
  TextTable t({"round", "listed sites", "IPv6 reachable"});
  for (const Fig1Point& p : series) {
    t.add_row({TextTable::count(p.round), TextTable::count(p.listed),
               TextTable::percent(p.reachability, 2)});
  }
  return t;
}

std::vector<Fig3aBucket> fig3a_buckets(const web::SiteCatalog& catalog,
                                       std::uint32_t round) {
  struct Def {
    const char* label;
    std::uint32_t max_rank;
  };
  static constexpr Def kDefs[] = {{"Top 10", 10},     {"Top 100", 100},
                                  {"Top 1k", 1'000},  {"Top 10k", 10'000},
                                  {"Top 100k", 100'000}, {"Top 1M", 0xffffffffu}};
  constexpr std::size_t kBuckets = std::size(kDefs);
  // One scan: each listed site counts once, into the tightest bucket
  // that holds its rank; the nested totals are running sums of those.
  // Ranked ids are in listing order with rank id + 1, so the sites listed
  // at `round` are ids [0, listed_at(round)) and each bucket is one id
  // range of them.
  std::array<std::size_t, kBuckets> sites{}, v6{};
  const std::size_t listed = catalog.listed_at(round);
  std::size_t id = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::size_t bucket_end = std::min<std::size_t>(listed, kDefs[b].max_rank);
    for (; id < bucket_end; ++id) {
      ++sites[b];
      if (catalog.dual_stack_at(catalog.sites()[id], round)) ++v6[b];
    }
  }
  std::vector<Fig3aBucket> out;
  std::size_t total_sites = 0, total_v6 = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    total_sites += sites[b];
    total_v6 += v6[b];
    out.push_back({kDefs[b].label, total_sites,
                   total_sites == 0 ? 0.0
                                    : static_cast<double>(total_v6) /
                                          static_cast<double>(total_sites)});
  }
  return out;
}

util::TextTable fig3a_table(const std::vector<Fig3aBucket>& buckets) {
  TextTable t({"rank bucket", "sites", "IPv6 reachable"});
  for (const Fig3aBucket& b : buckets) {
    t.add_row({b.label, TextTable::count(b.sites), TextTable::percent(b.reachability, 2)});
  }
  return t;
}

Fig3b fig3b_sample_bias(const VpReport& vp, const web::SiteCatalog& catalog) {
  Fig3b f;
  std::size_t top_faster = 0, all_faster = 0;
  for (const SiteAssessment& a : vp.assessments) {
    if (a.outcome != SiteOutcome::kKept) continue;
    const web::Site& s = catalog.site(a.site);
    const bool faster = a.v6_speed > a.v4_speed;
    ++f.all_n;
    all_faster += faster ? 1 : 0;
    if (!catalog.from_dns_cache(s)) {
      ++f.top_list_n;
      top_faster += faster ? 1 : 0;
    }
  }
  if (f.top_list_n) {
    f.top_list_v6_faster =
        static_cast<double>(top_faster) / static_cast<double>(f.top_list_n);
  }
  if (f.all_n) {
    f.all_sites_v6_faster = static_cast<double>(all_faster) / static_cast<double>(f.all_n);
  }
  return f;
}

util::TextTable fig3b_table(const Fig3b& f) {
  TextTable t({"sample", "kept sites", "% IPv6 faster"});
  t.add_row({"Ranked list (\"Top 1M\")", TextTable::count(f.top_list_n),
             TextTable::percent(f.top_list_v6_faster)});
  t.add_row({"With DNS-cache supplement (\"5M\")", TextTable::count(f.all_n),
             TextTable::percent(f.all_sites_v6_faster)});
  return t;
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

namespace {

/// A set of ASNs as marks over the dense ASN range, grown to the largest
/// ASN inserted; size() counts the distinct ASNs.
class AsnMarks {
 public:
  void insert(topo::Asn a) {
    if (a >= marks_.size()) marks_.resize(std::size_t{a} + 1, 0);
    if (marks_[a] == 0) {
      marks_[a] = 1;
      ++count_;
    }
  }
  void insert_all(const AsnMarks& other) {
    for (std::size_t a = 0; a < other.marks_.size(); ++a) {
      if (other.marks_[a] != 0) insert(static_cast<topo::Asn>(a));
    }
  }
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  std::vector<std::uint8_t> marks_;
  std::size_t count_ = 0;
};

struct Table2Sets {
  AsnMarks dest_v4, dest_v6, crossed_v4, crossed_v6;
};

Table2Sets table2_sets(const VpReport& vp) {
  Table2Sets s;
  for (const SiteAssessment& a : vp.assessments) {
    if (a.rounds_measured == 0) continue;
    if (a.v4_origin != topo::kNoAs) {
      s.dest_v4.insert(a.v4_origin);
      s.crossed_v4.insert(a.v4_origin);
    }
    if (a.v6_origin != topo::kNoAs) {
      s.dest_v6.insert(a.v6_origin);
      s.crossed_v6.insert(a.v6_origin);
    }
    if (a.v4_path != core::kNoPath) {
      for (topo::Asn hop : vp.view.paths().path(a.v4_path)) s.crossed_v4.insert(hop);
    }
    if (a.v6_path != core::kNoPath) {
      for (topo::Asn hop : vp.view.paths().path(a.v6_path)) s.crossed_v6.insert(hop);
    }
  }
  return s;
}

}  // namespace

Table2 table2_profiles(const std::vector<VpReport>& vps) {
  Table2 out;
  Table2Sets all;
  for (const VpReport& vp : vps) {
    const Table2Sets s = table2_sets(vp);
    Table2Col col;
    col.vp = vp.name;
    for (const SiteAssessment& a : vp.assessments) {
      if (a.rounds_measured > 0) ++col.sites_total;
      if (a.outcome == SiteOutcome::kKept) ++col.sites_kept;
    }
    col.dest_ases_v4 = s.dest_v4.size();
    col.dest_ases_v6 = s.dest_v6.size();
    col.crossed_v4 = s.crossed_v4.size();
    col.crossed_v6 = s.crossed_v6.size();
    out.cols.push_back(col);
    all.dest_v4.insert_all(s.dest_v4);
    all.dest_v6.insert_all(s.dest_v6);
    all.crossed_v4.insert_all(s.crossed_v4);
    all.crossed_v6.insert_all(s.crossed_v6);
  }
  Table2Col all_col;
  all_col.vp = "All";
  all_col.dest_ases_v4 = all.dest_v4.size();
  all_col.dest_ases_v6 = all.dest_v6.size();
  all_col.crossed_v4 = all.crossed_v4.size();
  all_col.crossed_v6 = all.crossed_v6.size();
  out.cols.push_back(all_col);
  return out;
}

util::TextTable table2_render(const Table2& t) {
  std::vector<std::string> header{"Numbers of"};
  for (const Table2Col& c : t.cols) header.push_back(c.vp);
  TextTable out(header);
  auto row = [&](const char* label, auto getter, bool na_for_all) {
    std::vector<std::string> cells{label};
    for (const Table2Col& c : t.cols) {
      if (na_for_all && c.vp == "All") cells.push_back("NA");
      else cells.push_back(TextTable::count(getter(c)));
    }
    out.add_row(cells);
  };
  row("Sites (total)", [](const Table2Col& c) { return c.sites_total; }, true);
  row("Sites kept", [](const Table2Col& c) { return c.sites_kept; }, true);
  row("Dest. ASes (IPv4)", [](const Table2Col& c) { return c.dest_ases_v4; }, false);
  row("Dest. ASes (IPv6)", [](const Table2Col& c) { return c.dest_ases_v6; }, false);
  row("ASes crossed (IPv4)", [](const Table2Col& c) { return c.crossed_v4; }, false);
  row("ASes crossed (IPv6)", [](const Table2Col& c) { return c.crossed_v6; }, false);
  return out;
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

std::vector<Table3Row> table3_sanitization(const std::vector<VpReport>& vps) {
  std::vector<Table3Row> rows;
  for (const VpReport& vp : vps) {
    Table3Row r;
    r.vp = vp.name;
    for (const SiteAssessment& a : vp.assessments) {
      switch (a.outcome) {
        case SiteOutcome::kInsufficientSamples: ++r.insufficient; break;
        case SiteOutcome::kStepUp:
          ++r.step_up;
          if (a.path_changed_at_step) ++r.step_up_path_change;
          break;
        case SiteOutcome::kStepDown:
          ++r.step_down;
          if (a.path_changed_at_step) ++r.step_down_path_change;
          break;
        case SiteOutcome::kTrendUp: ++r.trend_up; break;
        case SiteOutcome::kTrendDown: ++r.trend_down; break;
        case SiteOutcome::kKept: break;
      }
    }
    rows.push_back(r);
  }
  return rows;
}

util::TextTable table3_render(const std::vector<Table3Row>& rows) {
  TextTable t({"VP", "Insufficient samples", "step up", "step down", "trend up",
               "trend down", "steps w/ path change"});
  for (const Table3Row& r : rows) {
    t.add_row({r.vp, TextTable::count(r.insufficient), TextTable::count(r.step_up),
               TextTable::count(r.step_down), TextTable::count(r.trend_up),
               TextTable::count(r.trend_down),
               TextTable::count(r.step_up_path_change + r.step_down_path_change) +
                   " of " + TextTable::count(r.step_up + r.step_down)});
  }
  return t;
}

// ---------------------------------------------------------------------------
// Table 4 / Table 5
// ---------------------------------------------------------------------------

std::vector<Table4Row> table4_classification(const std::vector<VpReport>& vps) {
  std::vector<Table4Row> rows;
  for (const VpReport& vp : vps) {
    const CategoryCounts c = vp.kept_counts();
    rows.push_back({vp.name, c.dl, c.sp, c.dp});
  }
  return rows;
}

util::TextTable table4_render(const std::vector<Table4Row>& rows) {
  std::vector<std::string> header{""};
  for (const Table4Row& r : rows) header.push_back(r.vp);
  TextTable t(header);
  auto emit = [&](const char* label, auto getter) {
    std::vector<std::string> cells{label};
    for (const Table4Row& r : rows) cells.push_back(TextTable::count(getter(r)));
    t.add_row(cells);
  };
  emit("# DL sites", [](const Table4Row& r) { return r.dl; });
  emit("# SP sites", [](const Table4Row& r) { return r.sp; });
  emit("# DP sites", [](const Table4Row& r) { return r.dp; });
  return t;
}

std::vector<Table5Row> table5_removed_bias(const std::vector<VpReport>& vps) {
  std::vector<Table5Row> rows;
  for (const VpReport& vp : vps) {
    Table5Row r;
    r.vp = vp.name;
    for (const SiteAssessment& a : vp.assessments) {
      // Only transition/trend removals: those had sufficient samples.
      if (a.outcome == SiteOutcome::kInsufficientSamples || a.outcome == SiteOutcome::kKept) {
        continue;
      }
      const std::optional<Category> c = category_of(a);
      if (!c) continue;
      const bool good = util::comparable_or_better(a.v6_speed, a.v4_speed);
      switch (*c) {
        case Category::kSp: (good ? r.sp_good : r.sp_bad)++; break;
        case Category::kDp: (good ? r.dp_good : r.dp_bad)++; break;
        case Category::kDl: (good ? r.dl_good : r.dl_bad)++; break;
      }
    }
    rows.push_back(r);
  }
  return rows;
}

util::TextTable table5_render(const std::vector<Table5Row>& rows) {
  std::vector<std::string> header{""};
  for (const Table5Row& r : rows) header.push_back(r.vp);
  TextTable t(header);
  auto emit = [&](const char* label, auto getter) {
    std::vector<std::string> cells{label};
    for (const Table5Row& r : rows) cells.push_back(TextTable::count(getter(r)));
    t.add_row(cells);
  };
  emit("SP good perf.", [](const Table5Row& r) { return r.sp_good; });
  emit("SP bad perf.", [](const Table5Row& r) { return r.sp_bad; });
  emit("DP good perf.", [](const Table5Row& r) { return r.dp_good; });
  emit("DP bad perf.", [](const Table5Row& r) { return r.dp_bad; });
  emit("DL good perf.", [](const Table5Row& r) { return r.dl_good; });
  emit("DL bad perf.", [](const Table5Row& r) { return r.dl_bad; });
  return t;
}

// ---------------------------------------------------------------------------
// Table 6
// ---------------------------------------------------------------------------

std::vector<Table6Row> table6_dl_perf(const std::vector<VpReport>& vps) {
  std::vector<Table6Row> rows;
  for (const VpReport& vp : vps) {
    Table6Row r;
    r.vp = vp.name;
    double v4 = 0.0, v6 = 0.0;
    std::size_t v4_ge = 0;
    for (const SiteAssessment& a : vp.assessments) {
      if (a.outcome != SiteOutcome::kKept || category_of(a) != Category::kDl) continue;
      ++r.sites;
      v4 += a.v4_speed;
      v6 += a.v6_speed;
      if (a.v4_speed >= a.v6_speed) ++v4_ge;
    }
    if (r.sites) {
      r.pct_v4_ge_v6 = static_cast<double>(v4_ge) / static_cast<double>(r.sites);
      r.v4_perf = v4 / static_cast<double>(r.sites);
      r.v6_perf = v6 / static_cast<double>(r.sites);
    }
    rows.push_back(r);
  }
  return rows;
}

util::TextTable table6_render(const std::vector<Table6Row>& rows) {
  std::vector<std::string> header{""};
  for (const Table6Row& r : rows) header.push_back(r.vp);
  TextTable t(header);
  std::vector<std::string> c1{"# sites"}, c2{"IPv4 >= IPv6"}, c3{"IPv4 perf."},
      c4{"IPv6 perf."};
  for (const Table6Row& r : rows) {
    c1.push_back(TextTable::count(r.sites));
    c2.push_back(TextTable::percent(r.pct_v4_ge_v6, 0));
    c3.push_back(TextTable::num(r.v4_perf, 1));
    c4.push_back(TextTable::num(r.v6_perf, 1));
  }
  t.add_row(c1);
  t.add_row(c2);
  t.add_row(c3);
  t.add_row(c4);
  return t;
}

// ---------------------------------------------------------------------------
// Tables 7 & 9 (hop-count breakdowns)
// ---------------------------------------------------------------------------

namespace {

std::size_t hop_bucket(std::size_t hops) {
  if (hops == 0) hops = 1;  // local delivery folds into the 1-hop bucket
  return std::min<std::size_t>(hops, kHopBuckets) - 1;
}

std::size_t path_len(const VpReport& vp, core::PathId id) {
  if (id == core::kNoPath) return 0;
  return vp.view.paths().path(id).size();
}

HopCountRow hopcount_row(const VpReport& vp, bool sp_only) {
  HopCountRow row;
  row.vp = vp.name;
  std::array<double, kHopBuckets> v4_sum{}, v6_sum{};
  std::array<std::size_t, kHopBuckets> v4_n{}, v6_n{};
  for (const SiteAssessment& a : vp.assessments) {
    if (a.outcome != SiteOutcome::kKept) continue;
    const std::optional<Category> c = category_of(a);
    if (!c || sp_only != (*c == Category::kSp)) continue;  // SP rows vs DL+DP rows
    const std::size_t b4 = hop_bucket(path_len(vp, a.v4_path));
    const std::size_t b6 = hop_bucket(path_len(vp, a.v6_path));
    v4_sum[b4] += a.v4_speed;
    ++v4_n[b4];
    v6_sum[b6] += a.v6_speed;
    ++v6_n[b6];
  }
  for (std::size_t b = 0; b < kHopBuckets; ++b) {
    row.v4[b] = {v4_n[b] ? v4_sum[b] / static_cast<double>(v4_n[b]) : 0.0, v4_n[b]};
    row.v6[b] = {v6_n[b] ? v6_sum[b] / static_cast<double>(v6_n[b]) : 0.0, v6_n[b]};
  }
  return row;
}

}  // namespace

std::vector<HopCountRow> table7_hopcount_dldp(const std::vector<VpReport>& vps) {
  std::vector<HopCountRow> rows;
  for (const VpReport& vp : vps) rows.push_back(hopcount_row(vp, /*sp_only=*/false));
  return rows;
}

std::vector<HopCountRow> table9_hopcount_sp(const std::vector<VpReport>& vps) {
  std::vector<HopCountRow> rows;
  for (const VpReport& vp : vps) rows.push_back(hopcount_row(vp, /*sp_only=*/true));
  return rows;
}

util::TextTable hopcount_render(const std::vector<HopCountRow>& rows) {
  TextTable t({"VP", "fam", "1 hop", "#", "2 hops", "#", "3 hops", "#", "4 hops", "#",
               ">=5 hops", "#"});
  auto emit = [&](const std::string& vp, const char* fam,
                  const std::array<HopBucket, kHopBuckets>& buckets) {
    std::vector<std::string> cells{vp, fam};
    for (const HopBucket& b : buckets) {
      cells.push_back(b.sites ? TextTable::num(b.mean_speed, 1) : "-");
      cells.push_back(TextTable::count(b.sites));
    }
    t.add_row(cells);
  };
  for (const HopCountRow& r : rows) {
    emit(r.vp, "IPv4", r.v4);
    emit("", "IPv6", r.v6);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Tables 8, 10, 11, 12
// ---------------------------------------------------------------------------

std::vector<Table8Col> table8_sp(const std::vector<VpReport>& vps) {
  const auto checks = cross_check(vps);
  std::vector<Table8Col> cols;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    Table8Col c;
    c.vp = vps[i].name;
    c.shares = summarize(vps[i].sp_ases);
    c.xcheck_pos = checks[i].positive;
    c.xcheck_neg = checks[i].negative;
    cols.push_back(c);
  }
  return cols;
}

namespace {

util::TextTable render_sp_table(const std::vector<Table8Col>& cols, bool with_zero_mode) {
  std::vector<std::string> header{""};
  for (const Table8Col& c : cols) header.push_back(c.vp);
  TextTable t(header);
  auto emit = [&](const char* label, auto getter) {
    std::vector<std::string> cells{label};
    for (const Table8Col& c : cols) cells.push_back(getter(c));
    t.add_row(cells);
  };
  emit("IPv6 ~= IPv4", [](const Table8Col& c) {
    return TextTable::percent(c.shares.frac(c.shares.similar));
  });
  if (with_zero_mode) {
    emit("Zero mode", [](const Table8Col& c) {
      return TextTable::percent(c.shares.frac(c.shares.zero_mode));
    });
    emit("Small number of sites", [](const Table8Col& c) {
      return TextTable::percent(c.shares.frac(c.shares.small_n));
    });
    emit("Other", [](const Table8Col& c) {
      return TextTable::percent(c.shares.frac(c.shares.other));
    });
  } else {
    emit("Other", [](const Table8Col& c) {
      return TextTable::percent(
          c.shares.frac(c.shares.zero_mode + c.shares.small_n + c.shares.other));
    });
  }
  emit("# ASes", [](const Table8Col& c) { return TextTable::count(c.shares.total); });
  emit("x-check (+)", [](const Table8Col& c) { return TextTable::count(c.xcheck_pos); });
  emit("x-check (-)", [](const Table8Col& c) { return TextTable::count(c.xcheck_neg); });
  return t;
}

}  // namespace

util::TextTable table8_render(const std::vector<Table8Col>& cols) {
  return render_sp_table(cols, /*with_zero_mode=*/true);
}

util::TextTable table10_render(const std::vector<Table8Col>& cols) {
  // W6D participants had fully IPv6-qualified servers, so the paper's
  // Table 10 has no zero-mode row; everything non-similar folds together.
  return render_sp_table(cols, /*with_zero_mode=*/false);
}

std::vector<Table11Col> table11_dp(const std::vector<VpReport>& vps) {
  std::vector<Table11Col> cols;
  for (const VpReport& vp : vps) {
    cols.push_back({vp.name, summarize(vp.dp_ases)});
  }
  return cols;
}

namespace {

util::TextTable render_dp_table(const std::vector<Table11Col>& cols, bool with_zero_mode) {
  std::vector<std::string> header{""};
  for (const Table11Col& c : cols) header.push_back(c.vp);
  TextTable t(header);
  auto emit = [&](const char* label, auto getter) {
    std::vector<std::string> cells{label};
    for (const Table11Col& c : cols) cells.push_back(getter(c));
    t.add_row(cells);
  };
  emit("IPv6 ~= IPv4", [](const Table11Col& c) {
    return TextTable::percent(c.shares.frac(c.shares.similar));
  });
  if (with_zero_mode) {
    emit("Zero mode", [](const Table11Col& c) {
      return TextTable::percent(c.shares.frac(c.shares.zero_mode));
    });
  }
  emit("# ASes", [](const Table11Col& c) { return TextTable::count(c.shares.total); });
  return t;
}

}  // namespace

util::TextTable table11_render(const std::vector<Table11Col>& cols) {
  return render_dp_table(cols, /*with_zero_mode=*/true);
}

util::TextTable table12_render(const std::vector<Table11Col>& cols) {
  return render_dp_table(cols, /*with_zero_mode=*/false);
}

// ---------------------------------------------------------------------------
// Table 13
// ---------------------------------------------------------------------------

std::vector<Table13Col> table13_good_as(const std::vector<VpReport>& vps) {
  const std::set<topo::Asn> good = good_as_set(vps);
  std::vector<Table13Col> cols;
  for (const VpReport& vp : vps) {
    cols.push_back({vp.name, good_as_coverage(vp.assessments, good, vp.view.paths())});
  }
  return cols;
}

util::TextTable table13_render(const std::vector<Table13Col>& cols) {
  std::vector<std::string> header{"% good ASes in path"};
  for (const Table13Col& c : cols) header.push_back(c.vp);
  TextTable t(header);
  static const char* kLabels[] = {"100%", "[75%, 100%)", "[50%, 75%)", "[25%, 50%)",
                                  "[0%, 25%)"};
  for (std::size_t b = 0; b < 5; ++b) {
    std::vector<std::string> cells{kLabels[b]};
    for (const Table13Col& c : cols) {
      cells.push_back(TextTable::percent(c.coverage.frac(b)));
    }
    t.add_row(cells);
  }
  std::vector<std::string> tail{"# DP paths"};
  for (const Table13Col& c : cols) tail.push_back(TextTable::count(c.coverage.paths));
  t.add_row(tail);
  return t;
}

}  // namespace v6mon::analysis
