// The complete reproduction in one binary: builds the paper world, runs
// the regular campaign and the World IPv6 Day event, and prints every
// figure and table of the paper's evaluation section. CSVs (tables plus
// the raw per-VP observation dumps) land in ./full_study_out/.
//
// Usage: full_study [--metrics] [--config FILE] [--fallback MODE]
//                   [seed] [scale] [sink]
//   --metrics: enable the obs:: observability layer; prints the stage /
//   counter summary and writes full_study_out/metrics.json, led by a
//   manifest (seed, scale, config, campaign threads, build type, CPU
//   count and git revision). Off by default — a metrics-off run is
//   bit-identical with or without this binary's instrumentation
//   compiled in.
//   --config FILE: load a scenario file (scenario/config_loader.h) as the
//   run's baseline. Precedence: paper defaults < scenario file <
//   positional arguments.
//   --fallback MODE: none (default) | sequential | race — the conn-layer
//   fallback policy (core/fallback.h). `none` is byte-identical to a
//   build without the conn layer; the other modes add the fallback-tax
//   table (full_study_out/fallback.csv) on top of the paper outputs,
//   which stay byte-identical across all three modes.
//   sink: sharded (default) | spool — the ingest backend; a pure
//   performance/memory knob, both emit identical bytes. spool
//   streams observations to full_study_out/*.spool during the campaign
//   and replays them for the analysis (out-of-core mode).
//
// Each paper artifact is printed with the paper's published values under
// it (analysis/paper_reference.h). Exit status: 0 on success, 2 on bad
// arguments or configuration, 1 when an output file cannot be written.

#include "args.h"

#include <sched.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include "analysis/fallback_view.h"
#include "analysis/longitudinal.h"
#include "analysis/paper_reference.h"
#include "analysis/tables.h"
#include "core/campaign.h"
#include "core/world_timeline.h"
#include "obs/metrics.h"
#include "scenario/evolution.h"
#include "scenario/config_loader.h"
#include "scenario/paper.h"
#include "util/error.h"
#include "util/strings.h"

using namespace v6mon;

namespace {

/// Print one table, with the paper's published values under it when the
/// entry has them, and write its CSV. Throws IoError when the CSV cannot
/// be written.
void show(const analysis::PaperReference& ref, const util::TextTable& table) {
  std::printf("\n===== %s =====\n%s", ref.title, table.render().c_str());
  if (ref.paper[0] != '\0') {
    std::printf("Paper reference (CoNEXT'11 published values):\n%s\n", ref.paper);
  }
  const std::string path = std::string("full_study_out/") + ref.csv;
  if (!util::write_file(path, table.to_csv())) throw IoError("cannot write " + path);
}

void show(analysis::Artifact a, const util::TextTable& table) {
  show(analysis::paper_reference(a), table);
}

core::SinkBackend parse_sink(const char* arg) {
  if (std::strcmp(arg, "spool") == 0) return core::SinkBackend::kSpool;
  if (std::strcmp(arg, "sharded") == 0) return core::SinkBackend::kSharded;
  if (std::strcmp(arg, "mutex") == 0) {
    std::fprintf(stderr, "the mutex sink was removed (want sharded|spool)\n");
  } else {
    std::fprintf(stderr, "unknown sink '%s' (want sharded|spool)\n", arg);
  }
  std::exit(2);
}

core::FallbackPolicy parse_fallback(const char* arg) {
  if (std::strcmp(arg, "none") == 0) return core::FallbackPolicy::kNone;
  if (std::strcmp(arg, "sequential") == 0) return core::FallbackPolicy::kSequential;
  if (std::strcmp(arg, "race") == 0) return core::FallbackPolicy::kRace;
  std::fprintf(stderr, "unknown fallback '%s' (want none|sequential|race)\n", arg);
  std::exit(2);
}

/// Stream one store's observation dump straight to disk — no
/// materialized copy, however many million rows the campaign produced —
/// formatted on `threads` workers. Returns false, after saying why, when
/// the file cannot be written.
bool dump_observations(const core::ResultsDb& db, const std::string& name,
                       std::size_t threads) {
  const std::string path = "full_study_out/observations_" + name + ".csv";
  std::ofstream out(path);
  try {
    if (!out) throw IoError("cannot open for writing");
    db.write_csv(out, threads);
  } catch (const IoError& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

/// The CPUs this process may run on (its affinity mask) as JSON text;
/// null when the mask cannot be read.
std::string affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "null";
  return std::to_string(CPU_COUNT(&set));
}

/// The shortest decimal that reads back as `v`.
std::string shortest(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

}  // namespace

int main(int argc, char** argv) try {
  bool with_metrics = false;
  const char* config_path = nullptr;
  const char* fallback_arg = nullptr;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      with_metrics = true;
    } else if (std::strcmp(argv[i], "--config") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--config needs a scenario-file argument\n");
        return 2;
      }
      config_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fallback") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--fallback needs none|sequential|race\n");
        return 2;
      }
      fallback_arg = argv[++i];
    } else {
      pos.push_back(argv[i]);
    }
  }

  scenario::ScenarioSpec spec;
  bool have_spec = false;
  if (config_path != nullptr) {
    spec = scenario::load_scenario_file(config_path);
    have_spec = true;
  }
  std::uint64_t seed = have_spec ? spec.world_seed : 2011;
  double scale = have_spec ? spec.scale : 1.0;
  if (pos.size() > 0) seed = examples::number_arg<std::uint64_t>(pos[0], "seed");
  if (pos.size() > 1) scale = examples::scale_arg(pos[1]);
  const core::SinkBackend sink =
      pos.size() > 2 ? parse_sink(pos[2]) : core::SinkBackend::kSharded;

  std::error_code dir_error;
  std::filesystem::create_directories("full_study_out", dir_error);
  if (dir_error) {
    std::fprintf(stderr, "cannot create full_study_out/: %s\n",
                 dir_error.message().c_str());
    return 1;
  }

  // Enable before the world build so the rib_build stage is captured.
  if (with_metrics) obs::metrics().set_enabled(true);

  std::printf("v6mon full study: seed=%llu scale=%.2f\n",
              static_cast<unsigned long long>(seed), scale);
  // The timeline owns the world. With evolution off (the default) it is
  // empty and the campaign takes the frozen path — byte-identical to a
  // plain build_paper_world() run; with `evolution.enabled = true` in
  // the scenario file the world steps through its epoch stream as the
  // campaign reaches the generated epoch rounds.
  scenario::WorldSpec world_spec = scenario::paper_spec(seed, scale);
  if (have_spec) world_spec.evolution = spec.evolution;
  core::WorldTimeline timeline = scenario::build_timeline(world_spec);
  const core::World& world = timeline.world();
  std::printf("%s\n", world.graph.summary().c_str());
  if (!timeline.empty()) {
    std::printf("evolving world: %zu epochs pending\n", timeline.num_epochs());
  }

  core::CampaignConfig cfg =
      have_spec ? spec.campaign : scenario::paper_campaign_config(seed);
  // A positional seed over a scenario file keeps the one-seed convention:
  // it re-seeds the campaign too unless the file pinned campaign.seed away
  // from its world seed.
  if (have_spec && pos.size() > 0 && spec.campaign.seed == spec.world_seed) {
    cfg.seed = seed;
  }
  if (pos.size() > 2) cfg.sink = sink;
  // The flag overrides a scenario file's fallback.policy, like the
  // positional seed/scale/sink do their keys.
  if (fallback_arg != nullptr) cfg.monitor.fallback = parse_fallback(fallback_arg);
  if (cfg.sink == core::SinkBackend::kSpool) cfg.spool_dir = "full_study_out";
  core::Campaign campaign(timeline, cfg);
  campaign.run();
  campaign.run_w6d();
  campaign.finalize();

  std::vector<core::ObservationView> views, w6d_views;
  const std::size_t threads = campaign.config().threads;
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    views.emplace_back(campaign.results(i));
    w6d_views.emplace_back(campaign.w6d_results(i));
    if (!dump_observations(campaign.results(i), world.vantage_points[i].name, threads) ||
        !dump_observations(campaign.w6d_results(i),
                           world.vantage_points[i].name + "_w6d", threads)) {
      return 1;
    }
  }
  const auto reports = analysis::analyze_world(world, views, {}, {}, cfg.threads);
  auto w6d_reports = analysis::analyze_world(world, w6d_views, {}, {}, cfg.threads);
  // The paper's W6D tables exclude Comcast (no event data there).
  std::erase_if(w6d_reports,
                [](const analysis::VpReport& r) { return r.name == "Comcast"; });

  using analysis::Artifact;
  show(Artifact::kFig1,
       analysis::fig1_table(analysis::fig1_series(world.catalog, world.num_rounds)));
  show(Artifact::kFig3a,
       analysis::fig3a_table(analysis::fig3a_buckets(world.catalog, world.num_rounds)));
  for (const auto& r : reports) {
    if (r.name == "Penn") {
      show(Artifact::kFig3b,
           analysis::fig3b_table(analysis::fig3b_sample_bias(r, world.catalog)));
    }
  }
  show(Artifact::kTable2, analysis::table2_render(analysis::table2_profiles(reports)));
  show(Artifact::kTable3,
       analysis::table3_render(analysis::table3_sanitization(reports)));
  show(Artifact::kTable4,
       analysis::table4_render(analysis::table4_classification(reports)));
  show(Artifact::kTable5,
       analysis::table5_render(analysis::table5_removed_bias(reports)));
  show(Artifact::kTable6, analysis::table6_render(analysis::table6_dl_perf(reports)));
  show(Artifact::kTable7,
       analysis::hopcount_render(analysis::table7_hopcount_dldp(reports)));
  show(Artifact::kTable8, analysis::table8_render(analysis::table8_sp(reports)));
  show(Artifact::kTable9,
       analysis::hopcount_render(analysis::table9_hopcount_sp(reports)));
  show(Artifact::kTable10, analysis::table10_render(analysis::table8_sp(w6d_reports)));
  show(Artifact::kTable11, analysis::table11_render(analysis::table11_dp(reports)));
  show(Artifact::kTable12, analysis::table12_render(analysis::table11_dp(w6d_reports)));
  show(Artifact::kTable13,
       analysis::table13_render(analysis::table13_good_as(reports)));

  // Fallback-enabled runs get the user-experience table on top; the
  // paper tables above are byte-identical across all three policies.
  if (cfg.monitor.fallback != core::FallbackPolicy::kNone) {
    show({"Fallback tax: user-experienced connectivity", "fallback.csv", ""},
         analysis::fallback_table(analysis::fallback_reports(campaign)));
  }

  // Evolving-world runs get the longitudinal view on top: per-epoch
  // adoption and SL/DL/SP/DP shares (the Fig. 3-shaped growth table),
  // one per vantage point.
  if (!timeline.empty()) {
    std::vector<std::uint32_t> boundaries;
    for (const core::EpochStats& s : timeline.epoch_stats()) {
      boundaries.push_back(s.round);
    }
    for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
      const std::string& name = world.vantage_points[i].name;
      const analysis::LongitudinalView lv =
          analysis::longitudinal_view(views[i], boundaries);
      const std::string title = "Longitudinal growth (" + name + ")";
      const std::string csv = "longitudinal_" + name + ".csv";
      show({title.c_str(), csv.c_str(), ""}, lv.table());
      std::printf("AAAA growth over the campaign (%s): %.2fx\n", name.c_str(),
                  lv.aaaa_growth());
    }
  }

  if (with_metrics) {
    auto& metrics = obs::metrics();
    metrics.set_gauge("world.ases", static_cast<double>(world.graph.num_ases()));
    metrics.set_gauge("world.sites", static_cast<double>(world.catalog.sites().size()));
    metrics.set_gauge("world.v6_records",
                      static_cast<double>(world.catalog.v6_records().size()));
    metrics.set_gauge("world.vantage_points",
                      static_cast<double>(world.vantage_points.size()));
    metrics.set_gauge("world.rounds", static_cast<double>(world.num_rounds));
    metrics.set_gauge("campaign.threads",
                      static_cast<double>(campaign.config().threads));
    std::printf("\n===== Campaign metrics =====\n%s", metrics.summary().c_str());
    const std::string path = "full_study_out/metrics.json";
    std::ofstream out(path);
    if (!out) throw IoError("cannot open " + path);
    // Keys as in bench/study/run.py's results manifest.
    const obs::ExportManifest manifest = {
        {"seed", std::to_string(seed)},
        {"scale", shortest(scale)},
        {"config", config_path != nullptr ? obs::json_quote(config_path) : "null"},
        {"threads", std::to_string(campaign.config().threads)},
        {"build_type", obs::json_quote(obs::build_type())},
        {"nproc", affinity_cpus()},
        {"git_rev", obs::json_quote(obs::git_revision())},
    };
    metrics.write_json(out, manifest);
    std::printf("metrics written to %s\n", path.c_str());
  }

  std::printf("\nCSV outputs in ./full_study_out/\n");
  return 0;
} catch (const IoError& e) {
  // An output file could not be written.
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
} catch (const Error& e) {
  // Bad configuration: a scenario file, or a seed/scale the world
  // builder rejects.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
