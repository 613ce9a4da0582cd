// Scenario config loader (src/scenario/config_loader.h): schema coverage,
// the strict-rejection contract (unknown/duplicate/malformed input is a
// hard error with a line number), and the parser's input bounds. The same
// parser is fuzzed in tests/fuzz/fuzz_config.cpp; these tests pin the
// *meaning* of accepted input, which a fuzzer cannot.

#include "scenario/config_loader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "scenario/paper.h"
#include "util/error.h"

namespace v6mon::scenario {
namespace {

TEST(ConfigLoader, EmptyTextYieldsPaperDefaults) {
  const ScenarioSpec spec = parse_scenario("");
  EXPECT_EQ(spec.world_seed, 2011u);
  EXPECT_DOUBLE_EQ(spec.scale, 1.0);
  const core::CampaignConfig paper = paper_campaign_config(2011);
  EXPECT_EQ(spec.campaign.seed, paper.seed);
  EXPECT_DOUBLE_EQ(spec.campaign.monitor.ci_rel, paper.monitor.ci_rel);
  EXPECT_EQ(spec.campaign.sink, paper.sink);
}

TEST(ConfigLoader, CommentsAndWhitespaceAreIgnored) {
  const ScenarioSpec spec = parse_scenario(
      "# a scenario\n"
      "\n"
      "  world.seed = 7   # trailing comment\n"
      "\t world.scale\t=\t0.25 \r\n");
  EXPECT_EQ(spec.world_seed, 7u);
  EXPECT_DOUBLE_EQ(spec.scale, 0.25);
}

TEST(ConfigLoader, WorldSeedReseedsCampaignUnlessExplicit) {
  EXPECT_EQ(parse_scenario("world.seed = 42\n").campaign.seed, 42u);
  const ScenarioSpec both =
      parse_scenario("world.seed = 42\ncampaign.seed = 9\n");
  EXPECT_EQ(both.world_seed, 42u);
  EXPECT_EQ(both.campaign.seed, 9u);
}

TEST(ConfigLoader, EveryKeyLands) {
  const ScenarioSpec spec = parse_scenario(
      "world.seed = 5\n"
      "world.scale = 0.5\n"
      "campaign.seed = 6\n"
      "campaign.threads = 3\n"
      "campaign.fast_path = false\n"
      "campaign.w6d_mini_rounds = 12\n"
      "campaign.sink = spool\n"
      "campaign.spool_dir = out/spool\n"
      "monitor.identity_threshold = 0.07\n"
      "monitor.ci_rel = 0.2\n"
      "monitor.confidence = 0.9\n"
      "monitor.min_downloads = 4\n"
      "monitor.max_downloads = 40\n"
      "monitor.path_quality_sigma = 0.1\n"
      "monitor.fetch_retries = 2\n"
      "dns.timeout_prob = 0.02\n"
      "download.setup_rtts = 4.5\n"
      "download.window_kB = 64\n"
      "download.noise_sigma = 0.03\n"
      "download.failure_prob = 0.01\n"
      "download.fixed_overhead_s = 0.2\n"
      "fallback.policy = race\n"
      "fallback.race_headstart_s = 0.25\n"
      "conn.timeout_s = 2.5\n"
      "conn.max_retries = 3\n"
      "conn.backoff_base_s = 0.2\n"
      "conn.backoff_mult = 1.5\n"
      "conn.reset_prob = 0.05\n"
      "evolution.enabled = true\n"
      "evolution.delta_rate = 2.5\n"
      "evolution.epoch_interval = 4\n"
      "evolution.max_as_fraction = 0.02\n"
      "evolution.depletion_round = 12\n");
  EXPECT_EQ(spec.world_seed, 5u);
  EXPECT_DOUBLE_EQ(spec.scale, 0.5);
  const core::CampaignConfig& c = spec.campaign;
  EXPECT_EQ(c.seed, 6u);
  EXPECT_EQ(c.threads, 3u);
  EXPECT_FALSE(c.fast_path);
  EXPECT_EQ(c.w6d_mini_rounds, 12u);
  EXPECT_EQ(c.sink, core::SinkBackend::kSpool);
  EXPECT_EQ(c.spool_dir, "out/spool");
  const core::MonitorConfig& m = c.monitor;
  EXPECT_DOUBLE_EQ(m.identity_threshold, 0.07);
  EXPECT_DOUBLE_EQ(m.ci_rel, 0.2);
  EXPECT_DOUBLE_EQ(m.confidence, 0.9);
  EXPECT_EQ(m.min_downloads, 4u);
  EXPECT_EQ(m.max_downloads, 40u);
  EXPECT_DOUBLE_EQ(m.path_quality_sigma, 0.1);
  EXPECT_EQ(m.fetch_retries, 2u);
  EXPECT_DOUBLE_EQ(m.dns.timeout_prob, 0.02);
  EXPECT_DOUBLE_EQ(m.download.setup_rtts, 4.5);
  EXPECT_DOUBLE_EQ(m.download.window_kB, 64.0);
  EXPECT_DOUBLE_EQ(m.download.noise_sigma, 0.03);
  EXPECT_DOUBLE_EQ(m.download.failure_prob, 0.01);
  EXPECT_DOUBLE_EQ(m.download.fixed_overhead_s, 0.2);
  EXPECT_EQ(m.fallback, core::FallbackPolicy::kRace);
  EXPECT_DOUBLE_EQ(m.conn.race_headstart_s, 0.25);
  EXPECT_DOUBLE_EQ(m.conn.timeout_s, 2.5);
  EXPECT_EQ(m.conn.max_retries, 3u);
  EXPECT_DOUBLE_EQ(m.conn.backoff_base_s, 0.2);
  EXPECT_DOUBLE_EQ(m.conn.backoff_mult, 1.5);
  EXPECT_DOUBLE_EQ(m.conn.reset_prob, 0.05);
  EXPECT_TRUE(spec.evolution.enabled);
  EXPECT_DOUBLE_EQ(spec.evolution.delta_rate, 2.5);
  EXPECT_EQ(spec.evolution.epoch_interval, 4u);
  EXPECT_DOUBLE_EQ(spec.evolution.max_as_fraction, 0.02);
  EXPECT_EQ(spec.evolution.depletion_round, 12u);
}

TEST(ConfigLoader, SinkSpellings) {
  EXPECT_EQ(parse_scenario("campaign.sink = sharded\n").campaign.sink,
            core::SinkBackend::kSharded);
  EXPECT_EQ(parse_scenario("campaign.sink = spool\n").campaign.sink,
            core::SinkBackend::kSpool);
  EXPECT_THROW(parse_scenario("campaign.sink = ring\n"), ParseError);
  // The mutex sink is gone: its spelling names the removal.
  try {
    (void)parse_scenario("campaign.sink = mutex\n");
    ADD_FAILURE() << "campaign.sink = mutex parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("mutex sink was removed"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigLoader, BoolSpellings) {
  EXPECT_TRUE(parse_scenario("campaign.fast_path = yes\n").campaign.fast_path);
  EXPECT_FALSE(parse_scenario("campaign.fast_path = off\n").campaign.fast_path);
  EXPECT_THROW(parse_scenario("campaign.fast_path = maybe\n"), ParseError);
}

// The strict-rejection contract: drifting input fails loudly, never
// silently falls back to defaults, and the error names the line.
TEST(ConfigLoader, RejectsWithLineNumbers) {
  const auto expect_fail = [](const std::string& text, const char* line_tag) {
    try {
      (void)parse_scenario(text);
      FAIL() << "accepted: " << text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
          << e.what();
    }
  };
  expect_fail("monitor.ci_rel 0.1\n", "line 1");               // no '='
  expect_fail("\nnope.key = 1\n", "line 2");                   // unknown key
  expect_fail("world.seed = 1\nworld.seed = 2\n", "line 2");   // duplicate
  expect_fail("world.seed = twelve\n", "line 1");              // bad u64
  expect_fail("world.seed = 12x\n", "line 1");                 // trailing junk
  expect_fail("monitor.ci_rel = 0.1.2\n", "line 1");           // bad double
  expect_fail("monitor.ci_rel = nan\n", "line 1");             // non-finite
  expect_fail("monitor.ci_rel =\n", "line 1");                 // empty value
  expect_fail("wo rld.seed = 1\n", "line 1");                  // invalid key
}

// The worker cap is core::kMaxParallelSites now; a scenario that still
// sets the retired key must fail loudly rather than be silently ignored.
TEST(ConfigLoader, RejectsRetiredMaxParallelSitesKey) {
  try {
    (void)parse_scenario("monitor.max_parallel_sites = 25\n");
    FAIL() << "retired key accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'monitor.max_parallel_sites'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
}

// A campaign answers every site's queries afresh from the catalog, so a
// resolver cache lifetime has nothing to act on; the retired key must
// fail loudly rather than be silently ignored.
TEST(ConfigLoader, RejectsRetiredDnsCacheRoundsKey) {
  try {
    (void)parse_scenario("dns.cache_rounds = 3\n");
    FAIL() << "retired key accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'dns.cache_rounds'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
}

TEST(ConfigLoader, RejectsOutOfDomainValues) {
  // world.scale shares paper_spec's bound (scenario::kMaxPaperScale).
  EXPECT_THROW(parse_scenario("world.scale = 0\n"), ConfigError);
  EXPECT_THROW(parse_scenario("world.scale = 101\n"), ConfigError);
  EXPECT_THROW(parse_scenario("world.scale = 1.37\n"), ConfigError);
  EXPECT_DOUBLE_EQ(parse_scenario("world.scale = 1.36\n").scale, kMaxPaperScale);
  EXPECT_THROW(parse_scenario("campaign.threads = 5000\n"), ParseError);
  EXPECT_THROW(parse_scenario("monitor.max_downloads = 70000\n"), ParseError);
  // Values the line parser accepts but MonitorConfig::validate rejects
  // surface as the same ConfigError a programmatic misconfiguration gets.
  EXPECT_THROW(parse_scenario("monitor.min_downloads = 1\n"), ConfigError);
  EXPECT_THROW(parse_scenario("monitor.confidence = 1.5\n"), ConfigError);
  EXPECT_THROW(
      parse_scenario("monitor.min_downloads = 9\nmonitor.max_downloads = 8\n"),
      ConfigError);
  // Evolution keys: the integer parser rejects structurally bad values
  // (ParseError); EvolutionSpec::validate rejects out-of-domain ones
  // (ConfigError), matching programmatic misuse.
  EXPECT_THROW(parse_scenario("evolution.epoch_interval = 0\n"), ParseError);
  EXPECT_THROW(parse_scenario("evolution.epoch_interval = 4294967295\n"),
               ParseError);  // web::kNever is reserved
  EXPECT_THROW(parse_scenario("evolution.delta_rate = 0\n"), ConfigError);
  EXPECT_THROW(parse_scenario("evolution.delta_rate = 500\n"), ConfigError);
  EXPECT_THROW(parse_scenario("evolution.max_as_fraction = 0\n"), ConfigError);
  EXPECT_THROW(parse_scenario("evolution.max_as_fraction = 1.5\n"), ConfigError);
  EXPECT_THROW(parse_scenario("evolution.enabled = maybe\n"), ParseError);
}

// ISSUE 9 satellite: probability keys outside [0, 1] and negative
// retry/backoff values used to be accepted here and only blow up (or
// silently misbehave) deep inside the download model. They are now parse
// errors that name the offending line.
TEST(ConfigLoader, RejectsOutOfDomainFailureKnobsWithLineNumbers) {
  const auto expect_fail = [](const std::string& text, const char* line_tag) {
    try {
      (void)parse_scenario(text);
      FAIL() << "accepted: " << text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
          << e.what();
    }
  };
  expect_fail("download.failure_prob = 1.5\n", "line 1");
  expect_fail("download.failure_prob = -0.1\n", "line 1");
  expect_fail("\ndns.timeout_prob = 2\n", "line 2");
  expect_fail("dns.timeout_prob = -1\n", "line 1");
  expect_fail("download.noise_sigma = -0.5\n", "line 1");
  expect_fail("download.setup_rtts = -1\n", "line 1");
  expect_fail("download.window_kB = 0\n", "line 1");
  expect_fail("download.fixed_overhead_s = -0.01\n", "line 1");
  // Conn-layer keys share the contract.
  expect_fail("conn.timeout_s = 0\n", "line 1");
  expect_fail("conn.timeout_s = -2\n", "line 1");
  expect_fail("conn.max_retries = 101\n", "line 1");
  expect_fail("conn.backoff_base_s = -0.3\n", "line 1");
  expect_fail("conn.backoff_mult = 0.9\n", "line 1");
  expect_fail("conn.reset_prob = 1.01\n", "line 1");
  expect_fail("fallback.race_headstart_s = -0.3\n", "line 1");
  expect_fail("fallback.policy = eyeballs\n", "line 1");
  // In-domain boundary values parse fine.
  EXPECT_DOUBLE_EQ(
      parse_scenario("download.failure_prob = 1\n").campaign.monitor.download.failure_prob,
      1.0);
  EXPECT_DOUBLE_EQ(
      parse_scenario("dns.timeout_prob = 0\n").campaign.monitor.dns.timeout_prob,
      0.0);
}

TEST(ConfigLoader, InputBoundsHold) {
  EXPECT_THROW(parse_scenario(std::string(1 << 21, '\n')), ParseError);  // bytes
  EXPECT_THROW(parse_scenario(std::string(20000, '\n')), ParseError);    // lines
  EXPECT_THROW(parse_scenario("# " + std::string(8192, 'x') + "\n"),
               ParseError);  // line length
}

TEST(ConfigLoader, LoadsFromFileAndReportsMissing) {
  const std::string path = ::testing::TempDir() + "/v6mon_scenario.conf";
  {
    std::ofstream out(path);
    out << "world.seed = 17\nworld.scale = 0.1\n";
  }
  const ScenarioSpec spec = load_scenario_file(path);
  EXPECT_EQ(spec.world_seed, 17u);
  EXPECT_DOUBLE_EQ(spec.scale, 0.1);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_scenario_file(path), Error);
}

}  // namespace
}  // namespace v6mon::scenario
