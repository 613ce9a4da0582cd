// study_bench: one end-to-end v6mon study per process, timed from outside.
//
// Replays examples/full_study's sequence through the library's public
// API: build the world, run the campaign and World IPv6 Day, finalize,
// dump every observation store, analyze, and write every table. Each
// public call is wrapped in a span recorded here; nothing inside the
// library is instrumented for this program. With --trace the library's
// existing obs:: layer is switched on as well, its counters and stage
// totals are exported, and two probes re-time the RIB build and the epoch
// advance after the study has closed.
//
// Usage:
//   study_bench (--config FILE | --multi-vp) --seed N --threads T
//               --out DIR [--trace FILE]
//
//   --config FILE  scenario file (scenario/config_loader.h); the world is
//                  built from its world.seed and scale.
//   --multi-vp     the built-in scheduling workload: 16 vantage points
//                  over 1500 rounds of a 250-site catalog (topology and
//                  VP lists are not scenario-file keys), world seed 2011.
//   --seed N       campaign seed: DNS loss, download samples, identity
//                  checks and monitoring order. The world stays fixed, so
//                  every seed measures the same amount of work (a 250-site
//                  catalog's dual-stack count alone swings outputs 2x
//                  between world seeds).
//   --threads T    world-build and campaign worker threads.
//   --out DIR      existing directory for the CSV outputs (and spools).
//   --trace FILE   traced run: write the span tree to FILE and add the
//                  per-layer metrics to the result.
//
// The last stdout line is one JSON object with the end-to-end numbers,
// an FNV-1a-64 digest of every CSV written, and the build facts the
// runner stamps into its manifest. Exit status: 0 ok, 1 study failed,
// 2 usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fallback_view.h"
#include "analysis/longitudinal.h"
#include "analysis/tables.h"
#include "bgp/rib.h"
#include "core/campaign.h"
#include "core/world_timeline.h"
#include "obs/metrics.h"
#include "scenario/config_loader.h"
#include "scenario/evolution.h"
#include "scenario/paper.h"
#include "util/error.h"

namespace {

using namespace v6mon;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Span tracing: {name, parent, start, end} records kept in memory.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  int open(std::string name) {
    spans_.push_back({std::move(name), current_, obs::now_ns(), 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = obs::now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  [[nodiscard]] static double seconds(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  [[nodiscard]] double seconds(int id) const {
    return seconds(spans_[static_cast<std::size_t>(id)]);
  }
  /// Summed duration of every span called `name` (0 when none ran).
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += seconds(s);
    }
    return sum;
  }
  /// Summed duration of the direct children of span `id`.
  [[nodiscard]] double children(int id) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) sum += seconds(s);
    }
    return sum;
  }

  /// Span tree as JSON, times relative to the first span's start, with
  /// each span's self time (duration minus its children's).
  [[nodiscard]] std::string to_json() const {
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::string out = "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double self = seconds(s) - children(static_cast<int>(i));
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\n  {\"name\": \"%s\", \"parent\": %d, \"start_ns\": %" PRIu64
                    ", \"end_ns\": %" PRIu64 ", \"self_s\": %.9f}",
                    i == 0 ? "" : ",", s.name.c_str(), s.parent, s.start_ns - t0,
                    s.end_ns - t0, self);
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name) : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { tracer_.close(id_); }
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Process facts.
// ---------------------------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

/// VmHWM (resident high-water mark so far) in MB.
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Outputs.
// ---------------------------------------------------------------------------

void write_or_throw(const fs::path& path, const std::string& content) {
  if (!util::write_file(path.string(), content)) {
    throw IoError("cannot write " + path.string());
  }
}

std::uint64_t dump_observations(const core::ResultsDb& db, const fs::path& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open " + path.string());
  db.write_csv(out);
  out.close();
  return fs::file_size(path);
}

/// FNV-1a-64 over every *.csv in `dir`, in sorted-name order: each file
/// contributes its name, a NUL byte, then its bytes.
std::uint64_t digest_csvs(const fs::path& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".csv") {
      names.push_back(e.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&h](const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 0x100000001b3ULL;
    }
  };
  std::vector<char> buf(1 << 20);
  for (const std::string& name : names) {
    feed(name.c_str(), name.size() + 1);
    std::ifstream in(dir / name, std::ios::binary);
    while (in) {
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      feed(buf.data(), static_cast<std::size_t>(in.gcount()));
    }
    if (in.bad()) throw IoError("cannot read " + (dir / name).string());
  }
  return h;
}

std::uint64_t spool_bytes(const fs::path& dir) {
  std::uint64_t sum = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".spool") sum += e.file_size();
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Many vantage points stepping through many rounds whose work lists are
/// small, so executor scheduling and per-(vp, round) sink flushes dominate
/// the campaign instead of the measurement kernel.
scenario::WorldSpec multi_vp_spec(std::uint64_t seed) {
  scenario::WorldSpec spec;
  spec.seed = seed;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 30;
  spec.topology.num_stub = 150;
  spec.catalog.initial_sites = 250;
  spec.catalog.churn_per_round = 1;
  spec.catalog.num_rounds = 1500;
  spec.w6d_round = 750;
  const scenario::V6UplinkMode modes[] = {scenario::V6UplinkMode::kSameProviders,
                                          scenario::V6UplinkMode::kSubsetProviders,
                                          scenario::V6UplinkMode::kSeparateProvider};
  const topo::Region regions[] = {topo::Region::kNorthAmerica, topo::Region::kEurope,
                                  topo::Region::kAsia};
  for (int i = 0; i < 16; ++i) {
    spec.vantage_points.push_back(
        {.name = "VP-" + std::to_string(i),
         .type = i % 2 == 0 ? core::VantagePoint::Type::kAcademic
                            : core::VantagePoint::Type::kCommercial,
         .region = regions[i % 3],
         .start_round = static_cast<std::uint32_t>(i % 4),
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = i % 4 == 0,
         .num_v4_providers = 1 + i % 2,
         .v6_mode = modes[i % 3]});
  }
  return spec;
}

struct Workload {
  scenario::WorldSpec world;
  core::CampaignConfig campaign;
};

Workload load_workload(const char* config_path, std::uint64_t seed, std::size_t threads,
                       const fs::path& out_dir) {
  Workload w;
  if (config_path != nullptr) {
    const scenario::ScenarioSpec spec = scenario::load_scenario_file(config_path);
    w.world = scenario::paper_spec(spec.world_seed, spec.scale);
    w.world.evolution = spec.evolution;
    w.campaign = spec.campaign;
  } else {
    w.world = multi_vp_spec(2011);
    w.campaign = scenario::paper_campaign_config(seed);
  }
  w.campaign.seed = seed;
  w.world.build_threads = threads;
  w.campaign.threads = threads;
  w.campaign.spool_dir = out_dir.string();
  return w;
}

// ---------------------------------------------------------------------------
// JSON result.
// ---------------------------------------------------------------------------

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& v) { add(key, "\"" + v + "\""); }
  void raw(const std::string& key, const std::string& v) { add(key, v); }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
  }
  std::string body_;
};

struct Args {
  const char* config = nullptr;
  bool multi_vp = false;
  std::optional<std::uint64_t> seed;
  std::size_t threads = 0;
  const char* out = nullptr;
  const char* trace = nullptr;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--multi-vp") {
      a.multi_vp = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    if (flag == "--config") {
      a.config = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--threads") {
      a.threads = static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--trace") {
      a.trace = value;
    } else {
      return std::nullopt;
    }
  }
  if ((a.config == nullptr) == !a.multi_vp || !a.seed || a.threads == 0 ||
      a.out == nullptr) {
    return std::nullopt;
  }
  return a;
}

int run(const Args& args) {
  const bool traced = args.trace != nullptr;
  const fs::path out_dir = args.out;
  Tracer tracer;
  JsonObject result;
  JsonObject layers;
  std::optional<Scope> study(std::in_place, tracer, "study");
  const int study_id = study->id();
  if (traced) obs::metrics().set_enabled(true);

  const Workload w = load_workload(args.config, *args.seed, args.threads, out_dir);
  std::uint64_t site_rounds = 0;
  std::uint64_t csv_bytes = 0;
  double hwm_setup = 0.0, hwm_campaign = 0.0, hwm_finalize = 0.0;
  double cpu_s = 0.0, rss_mb = 0.0;
  int setup_id = -1, campaign_id = -1, report_id = -1;
  {
    std::optional<Scope> phase(std::in_place, tracer, "setup");
    setup_id = phase->id();
    std::optional<core::WorldTimeline> timeline;
    {
      Scope s(tracer, "scenario.build_world");
      timeline.emplace(scenario::build_timeline(w.world));
    }
    const core::World& world = timeline->world();
    std::optional<core::Campaign> campaign;
    {
      Scope s(tracer, "core.campaign.ctor");
      campaign.emplace(*timeline, w.campaign);
    }
    phase.reset();
    if (traced) hwm_setup = vm_hwm_mb();

    phase.emplace(tracer, "campaign");
    campaign_id = phase->id();
    {
      Scope s(tracer, "core.campaign.run");
      campaign->run();
    }
    {
      Scope s(tracer, "core.campaign.w6d");
      campaign->run_w6d();
    }
    if (traced) hwm_campaign = vm_hwm_mb();
    {
      Scope s(tracer, "core.campaign.finalize");
      campaign->finalize();
    }
    phase.reset();
    if (traced) hwm_finalize = vm_hwm_mb();

    phase.emplace(tracer, "report");
    report_id = phase->id();
    const std::size_t num_vps = world.vantage_points.size();
    std::vector<core::ObservationView> views, w6d_views;
    {
      Scope s(tracer, "core.results.csv_write");
      for (std::size_t i = 0; i < num_vps; ++i) {
        views.emplace_back(campaign->results(i));
        w6d_views.emplace_back(campaign->w6d_results(i));
        const std::string& name = world.vantage_points[i].name;
        csv_bytes += dump_observations(campaign->results(i),
                                       out_dir / ("observations_" + name + ".csv"));
        csv_bytes += dump_observations(campaign->w6d_results(i),
                                       out_dir / ("observations_" + name + "_w6d.csv"));
      }
    }
    std::vector<analysis::VpReport> reports, w6d_reports;
    {
      Scope s(tracer, "analysis.analyze");
      reports = analysis::analyze_world(world, views);
    }
    {
      Scope s(tracer, "analysis.analyze");
      w6d_reports = analysis::analyze_world(world, w6d_views);
      // The paper's W6D tables exclude Comcast (no event data there).
      std::erase_if(w6d_reports,
                    [](const analysis::VpReport& r) { return r.name == "Comcast"; });
    }
    {
      Scope s(tracer, "analysis.tables");
      const auto table = [&out_dir](const char* csv, const util::TextTable& t) {
        write_or_throw(out_dir / csv, t.to_csv());
      };
      table("fig1.csv",
            analysis::fig1_table(analysis::fig1_series(world.catalog, world.num_rounds)));
      table("fig3a.csv",
            analysis::fig3a_table(analysis::fig3a_buckets(world.catalog, world.num_rounds)));
      for (const analysis::VpReport& r : reports) {
        if (r.name == "Penn") {
          table("fig3b.csv",
                analysis::fig3b_table(analysis::fig3b_sample_bias(r, world.catalog)));
        }
      }
      table("table2.csv", analysis::table2_render(analysis::table2_profiles(reports)));
      table("table3.csv", analysis::table3_render(analysis::table3_sanitization(reports)));
      table("table4.csv",
            analysis::table4_render(analysis::table4_classification(reports)));
      table("table5.csv", analysis::table5_render(analysis::table5_removed_bias(reports)));
      table("table6.csv", analysis::table6_render(analysis::table6_dl_perf(reports)));
      table("table7.csv",
            analysis::hopcount_render(analysis::table7_hopcount_dldp(reports)));
      table("table8.csv", analysis::table8_render(analysis::table8_sp(reports)));
      table("table9.csv", analysis::hopcount_render(analysis::table9_hopcount_sp(reports)));
      table("table10.csv", analysis::table10_render(analysis::table8_sp(w6d_reports)));
      table("table11.csv", analysis::table11_render(analysis::table11_dp(reports)));
      table("table12.csv", analysis::table12_render(analysis::table11_dp(w6d_reports)));
      table("table13.csv", analysis::table13_render(analysis::table13_good_as(reports)));
    }
    if (w.campaign.monitor.fallback != core::FallbackPolicy::kNone) {
      Scope s(tracer, "analysis.fallback");
      write_or_throw(out_dir / "fallback.csv",
                     analysis::fallback_table(analysis::fallback_reports(*campaign)).to_csv());
    }
    if (!timeline->empty()) {
      Scope s(tracer, "analysis.longitudinal");
      std::vector<std::uint32_t> boundaries;
      for (const core::EpochStats& st : timeline->epoch_stats()) boundaries.push_back(st.round);
      for (std::size_t i = 0; i < num_vps; ++i) {
        const std::string& name = world.vantage_points[i].name;
        write_or_throw(out_dir / ("longitudinal_" + name + ".csv"),
                       analysis::longitudinal_view(views[i], boundaries).table().to_csv());
      }
    }
    phase.reset();
    study.reset();
    cpu_s = cpu_seconds();
    rss_mb = peak_rss_mb();

    // --- Everything below is outside total_s. ---------------------------
    for (std::size_t i = 0; i < num_vps; ++i) {
      const core::ResultsDb& db = campaign->results(i);
      for (std::uint32_t r = 0; r < db.rounds(); ++r) site_rounds += db.round_counters(r).listed;
      // W6D rounds bypass the round scan, so they record no listed count;
      // every monitored site lands in exactly one of these four buckets.
      const core::ResultsDb& w6d = campaign->w6d_results(i);
      for (std::uint32_t r = 0; r < w6d.rounds(); ++r) {
        const core::RoundCounters& c = w6d.round_counters(r);
        site_rounds += c.v4_only + c.v6_only + c.dual + c.dns_failed;
      }
    }
    if (traced) {
      obs::MetricsRegistry& m = obs::metrics();
      const auto stage_s = [&m](obs::Stage st) {
        return static_cast<double>(m.stage_totals(st).total_ns) * 1e-9;
      };
      const auto count = [&m](const char* name) {
        return static_cast<double>(m.counter_value(name));
      };
      dns::Resolver::Stats dns;
      for (std::size_t i = 0; i < num_vps; ++i) {
        const dns::Resolver::Stats s = campaign->dns_stats(i);
        dns.queries += s.queries;
        dns.cache_hits += s.cache_hits;
        dns.timeouts += s.timeouts;
      }
      // Node waits of 1 ms or more: bins are quarter decades from 1e-7 s.
      const std::vector<std::uint64_t> waits = m.histogram_bins("executor.node_wait_seconds");
      std::uint64_t slow_waits = 0;
      for (std::size_t b = 16; b < waits.size(); ++b) slow_waits += waits[b];
      const double lookups = count("path_cache.lookups");
      const double measured = count("monitor.status.measured");

      layers.num("bgp.rib_dest_tables", count("rib.dest_tables"));
      layers.num("bgp.rib_routes", count("rib.routes"));
      layers.num("core.campaign.site_rounds", static_cast<double>(site_rounds));
      layers.num("core.campaign.fast_path_share",
                 count("campaign.fast_path_sites") / static_cast<double>(site_rounds));
      layers.num("core.executor.nodes", count("executor.nodes"));
      layers.num("core.executor.slow_waits", static_cast<double>(slow_waits));
      layers.num("core.sink.rows", count("ingest.rows"));
      layers.num("core.sink.flushes", count("ingest.flushes"));
      layers.num("core.sink.ingest_flush_busy_s", stage_s(obs::Stage::kIngestFlush));
      layers.num("core.site_resolve_busy_s", stage_s(obs::Stage::kSiteResolve));
      layers.num("core.spool.bytes", static_cast<double>(spool_bytes(out_dir)));
      layers.num("dns.resolve_busy_s", stage_s(obs::Stage::kDnsResolve));
      layers.num("dns.queries", static_cast<double>(dns.queries));
      layers.num("dns.cache_hits", static_cast<double>(dns.cache_hits));
      layers.num("dns.timeouts", static_cast<double>(dns.timeouts));
      layers.num("transport.repeat_downloads_busy_s", stage_s(obs::Stage::kRepeatDownloads));
      layers.num("transport.identity_fetch_busy_s", stage_s(obs::Stage::kIdentityFetch));
      layers.num("transport.downloads", count("transport.downloads"));
      layers.num("transport.samples_per_measured",
                 measured == 0.0 ? 0.0 : count("transport.downloads") / measured);
      layers.num("transport.path_cache.hit_ratio",
                 lookups == 0.0 ? 0.0 : 1.0 - count("path_cache.inserts") / lookups);
      layers.num("transport.conn.attempts", count("conn.attempts"));
      layers.num("transport.conn.fallbacks", count("conn.fallbacks"));
      layers.num("core.results.csv_bytes", static_cast<double>(csv_bytes));
      layers.num("mem.hwm_after_setup_mb", hwm_setup);
      layers.num("mem.hwm_after_campaign_mb", hwm_campaign);
      layers.num("mem.hwm_after_finalize_mb", hwm_finalize);
    }
  }

  const double total_s = tracer.seconds(study_id);
  const double campaign_s = tracer.seconds(campaign_id);
  const std::uint64_t digest = digest_csvs(out_dir);
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);

  result.num("total_s", total_s);
  result.num("setup_s", tracer.seconds(setup_id));
  result.num("site_rounds_per_s", static_cast<double>(site_rounds) / campaign_s);
  result.num("report_s", tracer.seconds(report_id));
  result.num("peak_rss_mb", rss_mb);
  result.num("attributed_share", tracer.children(study_id) / total_s);
  result.str("digest", digest_hex);
  result.str("build_type", STUDY_BENCH_BUILD_TYPE);
  result.num("contract_level", V6MON_CONTRACT_LEVEL);
  result.str("compiler", __VERSION__);

  if (traced) {
    obs::metrics().set_enabled(false);
    // Probes: re-time two setup layers in isolation on a fresh world.
    // They run after the study span closed, so total_s never sees them.
    core::WorldTimeline probe = scenario::build_timeline(w.world);
    for (core::VantagePoint& vp : probe.world().vantage_points) vp.rib = bgp::Rib();
    {
      Scope s(tracer, "probe.rib_build");
      scenario::build_ribs(probe.world(), args.threads);
    }
    std::size_t changed_routes = 0;
    if (!probe.empty()) {
      Scope s(tracer, "probe.epoch_advance");
      probe.advance_to(probe.world().num_rounds);
    }
    for (const core::EpochStats& st : probe.epoch_stats()) changed_routes += st.changed_routes;

    layers.num("scenario.build_world_s", tracer.total("scenario.build_world"));
    layers.num("core.campaign.ctor_s", tracer.total("core.campaign.ctor"));
    layers.num("bgp.rib_build_s", tracer.total("probe.rib_build"));
    layers.num("core.timeline.epoch_advance_s", tracer.total("probe.epoch_advance"));
    layers.num("core.timeline.epochs", static_cast<double>(probe.epoch_stats().size()));
    layers.num("bgp.delta.changed_routes", static_cast<double>(changed_routes));
    layers.num("core.campaign.run_s", tracer.total("core.campaign.run"));
    layers.num("core.campaign.w6d_s", tracer.total("core.campaign.w6d"));
    layers.num("core.campaign.finalize_s", tracer.total("core.campaign.finalize"));
    layers.num("analysis.analyze_s", tracer.total("analysis.analyze"));
    layers.num("analysis.tables_s", tracer.total("analysis.tables"));
    layers.num("analysis.fallback_s", tracer.total("analysis.fallback"));
    layers.num("analysis.longitudinal_s", tracer.total("analysis.longitudinal"));
    layers.num("core.results.csv_write_s", tracer.total("core.results.csv_write"));
    layers.num("proc.cpu_s", cpu_s);
    layers.num("proc.cpu_util", cpu_s / (total_s * static_cast<double>(args.threads)));
    layers.num("trace.unattributed_s", total_s - tracer.children(study_id));
    result.raw("layers", layers.done());

    std::ofstream trace_out(args.trace);
    trace_out << tracer.to_json();
    trace_out.close();
    if (!trace_out) throw IoError(std::string("cannot write ") + args.trace);
  }
  std::printf("%s\n", result.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: study_bench (--config FILE | --multi-vp) --seed N --threads T "
                 "--out DIR [--trace FILE]\n");
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "study_bench: %s\n", e.what());
    return 1;
  }
}
