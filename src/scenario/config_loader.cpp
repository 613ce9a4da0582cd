#include "scenario/config_loader.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/paper.h"
#include "util/error.h"

namespace v6mon::scenario {

namespace {

/// Hard input bounds: a scenario file is a handful of lines; anything
/// beyond these limits is hostile or corrupt, and rejecting early keeps
/// the parser's memory use independent of attacker-controlled sizes.
constexpr std::size_t kMaxInputBytes = 1 << 20;   // 1 MiB
constexpr std::size_t kMaxLineBytes = 4096;
constexpr std::size_t kMaxLines = 10000;

/// Domain caps for values whose only other bound is "fits the integer
/// type" — a scenario asking for 2^60 threads or rounds is malformed,
/// not ambitious.
constexpr std::uint64_t kMaxThreads = 4096;
constexpr std::uint64_t kMaxMiniRounds = 100000;
constexpr std::uint64_t kMaxDownloadBudget = 65535;  // Observation sample ceiling
constexpr std::uint64_t kMaxRounds = 0xffffffffULL - 1;  // web::kNever is reserved
constexpr std::uint64_t kMaxConnRetries = 100;  // transport::ConnParams cap

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ParseError("scenario line " + std::to_string(line) + ": " + what);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool valid_key(std::string_view key) {
  if (key.empty()) return false;
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::uint64_t parse_u64(std::string_view v, std::size_t line) {
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || ptr != v.data() + v.size()) {
    fail(line, "expected an unsigned integer, got '" + std::string(v) + "'");
  }
  return out;
}

double parse_double(std::string_view v, std::size_t line) {
  // std::from_chars<double> is the allocation-free, locale-independent
  // path; it also rejects trailing garbage, which stod would swallow.
  double out = 0.0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || ptr != v.data() + v.size()) {
    fail(line, "expected a number, got '" + std::string(v) + "'");
  }
  if (!std::isfinite(out)) {
    fail(line, "non-finite values are not valid configuration");
  }
  return out;
}

bool parse_bool(std::string_view v, std::size_t line) {
  if (v == "true" || v == "1" || v == "on" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "off" || v == "no") return false;
  fail(line, "expected a boolean (true/false), got '" + std::string(v) + "'");
}

core::SinkBackend parse_sink(std::string_view v, std::size_t line) {
  if (v == "sharded") return core::SinkBackend::kSharded;
  if (v == "spool") return core::SinkBackend::kSpool;
  if (v == "mutex") {
    fail(line, "the mutex sink was removed: every round is ingested once by its "
               "coordinator; use sharded or spool");
  }
  fail(line, "expected sharded|spool, got '" + std::string(v) + "'");
}

core::FallbackPolicy parse_fallback(std::string_view v, std::size_t line) {
  if (v == "none") return core::FallbackPolicy::kNone;
  if (v == "sequential") return core::FallbackPolicy::kSequential;
  if (v == "race") return core::FallbackPolicy::kRace;
  fail(line, "expected none|sequential|race, got '" + std::string(v) + "'");
}

/// Probability value: a number outside [0, 1] is a parse error with the
/// line attached (ISSUE 9 satellite — these used to slip through to the
/// download model, or not even be checked at all).
double parse_prob(std::string_view v, std::size_t line, const char* key) {
  const double p = parse_double(v, line);
  if (!(p >= 0.0 && p <= 1.0)) {
    fail(line, std::string(key) + " must be in [0, 1]");
  }
  return p;
}

/// Non-negative physical quantity (seconds, RTTs, sigmas).
double parse_nonneg(std::string_view v, std::size_t line, const char* key) {
  const double x = parse_double(v, line);
  if (!(x >= 0.0)) fail(line, std::string(key) + " must be non-negative");
  return x;
}

}  // namespace

ScenarioSpec parse_scenario(std::string_view text) {
  if (text.size() > kMaxInputBytes) {
    throw ParseError("scenario file exceeds " + std::to_string(kMaxInputBytes) +
                     " bytes");
  }

  ScenarioSpec spec;
  spec.campaign = paper_campaign_config(spec.world_seed);

  std::vector<std::string> seen;  // duplicate-key detection (files are tiny)
  std::size_t line_no = 0;
  std::size_t pos = 0;
  bool explicit_campaign_seed = false;
  while (pos <= text.size()) {
    if (++line_no > kMaxLines) throw ParseError("scenario file has too many lines");
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.size() > kMaxLineBytes) fail(line_no, "line too long");

    // Strip comments ('#' anywhere outside a value is fine; values never
    // legitimately contain '#').
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) fail(line_no, "expected 'key = value'");
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (!valid_key(key)) {
      fail(line_no, "invalid key '" + std::string(key) + "'");
    }
    if (value.empty()) fail(line_no, "empty value for '" + std::string(key) + "'");
    for (const std::string& s : seen) {
      if (s == key) fail(line_no, "duplicate key '" + std::string(key) + "'");
    }
    seen.emplace_back(key);

    core::CampaignConfig& c = spec.campaign;
    core::MonitorConfig& m = c.monitor;
    if (key == "world.seed") {
      spec.world_seed = parse_u64(value, line_no);
    } else if (key == "world.scale") {
      spec.scale = parse_double(value, line_no);
      validate_paper_scale(spec.scale);
    } else if (key == "campaign.seed") {
      c.seed = parse_u64(value, line_no);
      explicit_campaign_seed = true;
    } else if (key == "campaign.threads") {
      const std::uint64_t v = parse_u64(value, line_no);
      if (v > kMaxThreads) fail(line_no, "campaign.threads out of range");
      c.threads = static_cast<std::size_t>(v);
    } else if (key == "campaign.fast_path") {
      c.fast_path = parse_bool(value, line_no);
    } else if (key == "campaign.w6d_mini_rounds") {
      const std::uint64_t v = parse_u64(value, line_no);
      if (v > kMaxMiniRounds) fail(line_no, "campaign.w6d_mini_rounds out of range");
      c.w6d_mini_rounds = static_cast<std::size_t>(v);
    } else if (key == "campaign.sink") {
      c.sink = parse_sink(value, line_no);
    } else if (key == "campaign.spool_dir") {
      c.spool_dir = std::string(value);
    } else if (key == "monitor.identity_threshold") {
      m.identity_threshold = parse_double(value, line_no);
    } else if (key == "monitor.ci_rel") {
      m.ci_rel = parse_double(value, line_no);
    } else if (key == "monitor.confidence") {
      m.confidence = parse_double(value, line_no);
    } else if (key == "monitor.min_downloads") {
      const std::uint64_t v = parse_u64(value, line_no);
      if (v > kMaxDownloadBudget) fail(line_no, "monitor.min_downloads out of range");
      m.min_downloads = static_cast<std::size_t>(v);
    } else if (key == "monitor.max_downloads") {
      const std::uint64_t v = parse_u64(value, line_no);
      if (v > kMaxDownloadBudget) fail(line_no, "monitor.max_downloads out of range");
      m.max_downloads = static_cast<std::size_t>(v);
    } else if (key == "monitor.path_quality_sigma") {
      m.path_quality_sigma = parse_double(value, line_no);
    } else if (key == "monitor.fetch_retries") {
      const std::uint64_t v = parse_u64(value, line_no);
      if (v > kMaxDownloadBudget) fail(line_no, "monitor.fetch_retries out of range");
      m.fetch_retries = static_cast<std::size_t>(v);
    } else if (key == "dns.timeout_prob") {
      m.dns.timeout_prob = parse_prob(value, line_no, "dns.timeout_prob");
    } else if (key == "download.setup_rtts") {
      m.download.setup_rtts = parse_nonneg(value, line_no, "download.setup_rtts");
    } else if (key == "download.window_kB") {
      m.download.window_kB = parse_double(value, line_no);
      if (!(m.download.window_kB > 0.0)) {
        fail(line_no, "download.window_kB must be positive");
      }
    } else if (key == "download.noise_sigma") {
      m.download.noise_sigma = parse_nonneg(value, line_no, "download.noise_sigma");
    } else if (key == "download.failure_prob") {
      m.download.failure_prob =
          parse_prob(value, line_no, "download.failure_prob");
    } else if (key == "download.fixed_overhead_s") {
      m.download.fixed_overhead_s =
          parse_nonneg(value, line_no, "download.fixed_overhead_s");
    } else if (key == "fallback.policy") {
      m.fallback = parse_fallback(value, line_no);
    } else if (key == "fallback.race_headstart_s") {
      m.conn.race_headstart_s =
          parse_nonneg(value, line_no, "fallback.race_headstart_s");
    } else if (key == "conn.timeout_s") {
      m.conn.timeout_s = parse_double(value, line_no);
      if (!(m.conn.timeout_s > 0.0)) fail(line_no, "conn.timeout_s must be positive");
    } else if (key == "conn.max_retries") {
      const std::uint64_t v = parse_u64(value, line_no);
      if (v > kMaxConnRetries) fail(line_no, "conn.max_retries out of range");
      m.conn.max_retries = static_cast<std::size_t>(v);
    } else if (key == "conn.backoff_base_s") {
      m.conn.backoff_base_s = parse_nonneg(value, line_no, "conn.backoff_base_s");
    } else if (key == "conn.backoff_mult") {
      m.conn.backoff_mult = parse_double(value, line_no);
      if (!(m.conn.backoff_mult >= 1.0)) {
        fail(line_no, "conn.backoff_mult must be >= 1");
      }
    } else if (key == "conn.reset_prob") {
      m.conn.reset_prob = parse_prob(value, line_no, "conn.reset_prob");
    } else if (key == "evolution.enabled") {
      spec.evolution.enabled = parse_bool(value, line_no);
    } else if (key == "evolution.delta_rate") {
      spec.evolution.delta_rate = parse_double(value, line_no);
    } else if (key == "evolution.epoch_interval") {
      const std::uint64_t v = parse_u64(value, line_no);
      if (v == 0 || v > kMaxRounds) fail(line_no, "evolution.epoch_interval out of range");
      spec.evolution.epoch_interval = static_cast<std::uint32_t>(v);
    } else if (key == "evolution.max_as_fraction") {
      spec.evolution.max_as_fraction = parse_double(value, line_no);
    } else if (key == "evolution.depletion_round") {
      const std::uint64_t v = parse_u64(value, line_no);
      if (v > kMaxRounds) fail(line_no, "evolution.depletion_round out of range");
      spec.evolution.depletion_round = static_cast<std::uint32_t>(v);
    } else {
      fail(line_no, "unknown key '" + std::string(key) + "'");
    }
  }

  // A scenario that sets the world seed but not the measurement seed
  // means "one seed for the whole run" — the same convention paper_spec
  // users get from paper_campaign_config(seed).
  if (!explicit_campaign_seed) spec.campaign.seed = spec.world_seed;

  // Domain validation: everything MonitorConfig::validate checks, as
  // ConfigError — the same errors a programmatic misconfiguration gets.
  spec.campaign.monitor.validate();
  spec.evolution.validate();
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("scenario: cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw Error("scenario: read failure on '" + path + "'");
  return parse_scenario(buf.str());
}

}  // namespace v6mon::scenario
