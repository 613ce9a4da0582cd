#include "common.h"

#include <cstdlib>
#include <fstream>

#include "obs/metrics.h"
#include "util/error.h"

namespace v6mon::bench {

namespace {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtod(v, nullptr) : fallback;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

}  // namespace

const Study& Study::instance() {
  // The Campaign stores a `const World&`; the study must therefore be
  // initialized *in place* (building a local Study and returning it by
  // value would leave the campaign referencing the dead local unless NRVO
  // happened to fire — a stack-use-after-scope ASan would flag).
  static Study study;
  static const bool initialized = [] {
    Study& s = study;
    s.seed = env_u64("V6MON_BENCH_SEED", 2011);
    s.scale = env_double("V6MON_BENCH_SCALE", 1.0);
    std::fprintf(stderr, "[bench] building world (seed=%llu scale=%.2f)...\n",
                 static_cast<unsigned long long>(s.seed), s.scale);
    s.world = scenario::build_paper_world(s.seed, s.scale);
    std::fprintf(stderr, "[bench] %s\n", s.world.graph.summary().c_str());
    std::fprintf(stderr, "[bench] running campaign (%u rounds, %zu VPs)...\n",
                 s.world.num_rounds, s.world.vantage_points.size());
    const core::CampaignConfig cfg = scenario::paper_campaign_config(s.seed);
    s.campaign = std::make_unique<core::Campaign>(s.world, cfg);
    s.campaign->run();
    s.campaign->run_w6d();
    s.campaign->finalize();
    std::vector<core::ObservationView> views, w6d;
    for (std::size_t i = 0; i < s.world.vantage_points.size(); ++i) {
      views.emplace_back(s.campaign->results(i));
      w6d.emplace_back(s.campaign->w6d_results(i));
    }
    s.reports = analysis::analyze_world(s.world, views, {}, {}, cfg.threads);
    s.w6d_reports = analysis::analyze_world(s.world, w6d, {}, {}, cfg.threads);
    std::fprintf(stderr, "[bench] analysis ready (%zu vantage points)\n",
                 s.reports.size());
    return true;
  }();
  (void)initialized;
  return study;
}

void print_result(const std::string& title, const util::TextTable& table,
                  const std::string& paper_reference, const std::string& csv_name) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
  std::printf("%s", table.render().c_str());
  if (!paper_reference.empty()) {
    std::printf("\nPaper reference (CoNEXT'11 published values):\n%s\n",
                paper_reference.c_str());
  }
  if (!csv_name.empty()) {
    const std::string path = "bench/out/" + csv_name;
    if (util::write_file(path, table.to_csv())) {
      std::printf("[csv written to %s]\n", path.c_str());
    }
  }
  std::printf("\n");
}

int run_bench_main(int argc, char** argv, void (*emit)()) {
  const char* metrics_env = std::getenv("V6MON_BENCH_METRICS");
  const bool with_metrics =
      metrics_env != nullptr && std::strtoul(metrics_env, nullptr, 10) != 0;
  // Enable before emit(): the Study singleton (world build + campaign)
  // is constructed lazily on first use, and its stages should land in
  // the export.
  if (with_metrics) obs::metrics().set_enabled(true);
  emit();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (with_metrics) {
    auto& metrics = obs::metrics();
    std::printf("================================================================\n");
    std::printf("Campaign metrics (V6MON_BENCH_METRICS=1)\n");
    std::printf("================================================================\n");
    std::printf("%s", metrics.summary().c_str());
    const std::string path = "bench/out/metrics.json";
    std::ofstream out(path);
    try {
      if (!out) throw IoError("cannot open " + path);
      metrics.write_json(out);
      std::printf("[metrics written to %s]\n", path.c_str());
    } catch (const IoError& e) {
      std::fprintf(stderr, "[bench] %s\n", e.what());
    }
  }
  return 0;
}

}  // namespace v6mon::bench
