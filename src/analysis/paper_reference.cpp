#include "analysis/paper_reference.h"

#include <array>

namespace v6mon::analysis {

namespace {

static_assert(static_cast<std::size_t>(Artifact::kTable13) + 1 == kNumArtifacts);

// Indexed by Artifact. The CSV names are the files full_study has always
// written; the golden digests in bench/study/golden.json cover them.
constexpr std::array<PaperReference, kNumArtifacts> kReferences{{
    {"Figure 1 - IPv6 reachability of the ranked site list over time", "fig1.csv",
     "  Series rises from ~0.2% (Oct'10) to >1.1% (Aug'11), with two\n"
     "  visible jumps: the IANA IPv4 depletion announcement (Feb 3 2011,\n"
     "  round 16 here) and World IPv6 Day (June 8 2011, round 34 here)."},
    {"Figure 3a - IPv6 reachability by site rank (end of campaign)", "fig3a.csv",
     "  Top 10 ~10-11%, Top 100 ~6%, Top 1k ~4%, Top 10k ~2.5%,\n"
     "  Top 100k ~1.5%, Top 1M ~1.1% (12-month window from Penn)."},
    {"Figure 3b - % of sites where the IPv6 download is faster (Penn)", "fig3b.csv",
     "  Both samples land around 35-40%, within a few points of each\n"
     "  other — sample choice does not bias the performance comparison."},
    {"Table 2 - Monitoring profiles per vantage point", "table2.csv",
     "                      Penn  Comcast  LU    UPCB  All\n"
     "  Sites (total)      12385   4568   5069   7843   NA\n"
     "  Sites kept          7994   3525   3906   4418   NA\n"
     "  Dest. ASes (IPv4)   1047    724    801    766  1364\n"
     "  Dest. ASes (IPv6)    727    592    642    609  1010\n"
     "  ASes crossed (IPv4) 1332    922   1019    988  1785\n"
     "  ASes crossed (IPv6)  849    742    764    746  1208\n"
     "  Shape: v6 counts < v4 counts everywhere; Penn (longest-running,\n"
     "  plus DNS-cache supplement) monitors the most sites."},
    {"Table 3 - Causes of confidence-target failures", "table3.csv",
     "            Insufficient  up   down  trend-up trend-down\n"
     "  Penn          2807      180   103    732      569\n"
     "  Comcast        251       83    52    530      127\n"
     "  LU             258       49    63    419      374\n"
     "  UPCB          1146      233   214   1033      799\n"
     "  Of the transitions, a minority coincide with path changes (e.g.\n"
     "  64/283 at Penn, 64/135 at Comcast, 43/112 at LU, 169/447 at UPCB)."},
    {"Table 4 - Site classification (DL / SP / DP)", "table4.csv",
     "              Penn  Comcast   LU   UPCB\n"
     "  # DL sites   784     450    352   485\n"
     "  # SP sites   424    1113   2291  2597\n"
     "  # DP sites  6786    1962   1263  1336\n"
     "  Shape: Penn overwhelmingly DP (separate early-IPv6 upstream);\n"
     "  Comcast mixed; LU/UPCB majority SP (first-hop parity)."},
    {"Table 5 - Removed sites by class and IPv6 performance", "table5.csv",
     "                 Penn  Comcast  LU  UPCB\n"
     "  SP good perf.   64     185   462  1242\n"
     "  SP bad perf.     8      64    42   163\n"
     "  DP good perf.  404     346   206   463\n"
     "  DP bad perf.   880      93   106   216\n"
     "  DL good perf.  111      54    65   103\n"
     "  DL bad perf.   117      50    24    92\n"
     "  Shape: more good SP sites removed than bad (bias *against* H1);\n"
     "  DL removals roughly balanced."},
    {"Table 6 - IPv6 vs IPv4 performance (kbytes/sec) for DL sites", "table6.csv",
     "               Penn  Comcast   LU   UPCB\n"
     "  # sites       784     450    352   485\n"
     "  IPv4>=IPv6    96%     91%    94%   90%\n"
     "  IPv4 perf.   35.6    49.3   50.9  49.6\n"
     "  IPv6 perf.   28.2    43.6   43.4  47.3\n"
     "  Shape: IPv4 as good or better for ~9 in 10 DL sites; consistently\n"
     "  higher mean speed — the gain native-IPv6 CDNs would deliver."},
    {"Table 7 - DL+DP sites: performance (kbytes/sec) by AS hop count", "table7.csv",
     "  Penn IPv4:  25.4 (5) / 39.5 (4327) / 31.1 (2318) / 28.5 (567) / 22.7 (179)\n"
     "  Penn IPv6:   -   (0) / 104.0  (6)  / 33.9  (742) / 28.7 (3296)/ 22.1 (3352)\n"
     "  Comcast v4: 57.3 (85)/ 42.8  (825) / 39.3 (1348) / 29.8 (103) / 22.8 (8)\n"
     "  Comcast v6: 37.2 (49)/ 47.1  (730) / 36.0 (1302) / 26.1 (159) / 44.1 (129)\n"
     "  LU IPv4:   113.3(153)/ 69.8  (887) / 49.0  (478) / 42.8 (93)  / 21.4 (24)\n"
     "  LU IPv6:    43.4(130)/ 67.2  (983) / 45.3  (375) / 51.5 (142) / 27.0 (5)\n"
     "  Shape: IPv4 speed decreases with hop count; IPv6 is notably worse\n"
     "  at *small* hop counts (tunnelled paths look short but are not) and\n"
     "  converges with IPv4 as hop count grows."},
    {"Table 8 - IPv6 vs IPv4 for SP destination ASes (H1)", "table8.csv",
     "                Penn  Comcast   LU    UPCB\n"
     "  IPv6~=IPv4   81.3%   80.7%   70.2%  79.8%\n"
     "  Zero mode     9.4%    6.0%   10.8%   7.3%\n"
     "  Small number  9.3%   13.3%   19.0%  12.9%\n"
     "  # ASes          75     233     248    124\n"
     "  x-check (+)     47     129     164     82\n"
     "  x-check (-)      0       0       0      0\n"
     "  Shape: ~3/4+ similar everywhere, remainder explained by servers\n"
     "  (zero-modes) or small samples; cross-checks dominated by (+)."},
    {"Table 9 - SP sites: performance (kbytes/sec) by AS hop count", "table9.csv",
     "  Penn v4:    - / -    / 36.0 (23)  / 29.5 (203) / 29.1 (169)\n"
     "  Penn v6:    - / -    / 34.4 (23)  / 27.6 (203) / 29.5 (169)\n"
     "  Comcast v4: 64.2(137)/ 41.6 (632) / 36.0 (304) / 36.8 (10)\n"
     "  Comcast v6: 59.9(137)/ 42.1 (632) / 35.4 (304) / 34.0 (10)\n"
     "  LU v4:      60.3(229)/ 62.5 (1829)/ 42.7 (115) / 21.3 (16)\n"
     "  LU v6:      57.3(229)/ 62.2 (1829)/ 39.2 (115) / 19.4 (16)\n"
     "  UPCB v4:     -       / 43.7 (168) / 62.8 (2202)/ 50.3 (38)\n"
     "  UPCB v6:     -       / 41.4 (168) / 64.7 (2202)/ 47.6 (38)\n"
     "  Shape: identical site counts per bucket (one shared path) and\n"
     "  near-equal speeds per bucket for both families."},
    {"Table 10 - World IPv6 Day: IPv6 vs IPv4 for SP ASes (participants)", "table10.csv",
     "               Penn    LU    UPCB\n"
     "  IPv6~=IPv4  92.3%  85.7%  72.2%\n"
     "  # ASes         13     42     36\n"
     "  x-check(+)      8     17     13\n"
     "  Shape: even better than Table 8 (participants' servers were fully\n"
     "  IPv6-qualified — hence no zero-mode row), far fewer ASes."},
    {"Table 11 - IPv6 vs IPv4 for DP destination ASes (H2)", "table11.csv",
     "               Penn  Comcast   LU   UPCB\n"
     "  IPv6~=IPv4    3%     11%    10%    8%\n"
     "  Zero mode    12%      5%     3%    6%\n"
     "  # ASes       587     266    341   422\n"
     "  Shape: similar+zero-mode far below Table 8's SP numbers — routing\n"
     "  differences are the dominant cause of poorer IPv6 performance."},
    {"Table 12 - World IPv6 Day: IPv6 vs IPv4 for DP ASes (participants)", "table12.csv",
     "               Penn    LU    UPCB\n"
     "  IPv6~=IPv4  53.5%  48.9%  51.0%\n"
     "  # ASes        114     92    102\n"
     "  Shape: participants do much better than Table 11's general DP\n"
     "  population, yet clearly worse than the SP ASes of Table 10 — and\n"
     "  there are notably more DP than SP ASes during the event."},
    {"Table 13 - Known-good AS coverage of DP IPv6 paths", "table13.csv",
     "                Penn  Comcast   LU    UPCB\n"
     "  100%          3.2%   11.1%   6.4%  17.2%\n"
     "  [75%, 100%)  20.8%    8.3%   0.9%  22.4%\n"
     "  [50%, 75%)   58.8%   45.8%  68.8%  52.6%\n"
     "  [25%, 50%)   15.8%   27.8%  19.3%   7.8%\n"
     "  [0%, 25%)     1.4%    6.9%   4.6%   0.0%\n"
     "  Shape: the [50,75) band dominates; the fully-good bucket is small\n"
     "  (the destination itself is rarely exonerated)."},
}};

}  // namespace

const PaperReference& paper_reference(Artifact a) {
  return kReferences[static_cast<std::size_t>(a)];
}

}  // namespace v6mon::analysis
