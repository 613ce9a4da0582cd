#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/campaign.h"
#include "scenario/world_builder.h"

namespace v6mon::scenario {

/// A parsed campaign-scenario description: which world to build and how
/// to run the campaign over it. This is the text-facing twin of
/// `paper_spec` + `paper_campaign_config` — everything a reproduction
/// run varies, in one `key = value` file:
///
///     # v6mon scenario
///     world.seed   = 2011
///     world.scale  = 0.1
///     campaign.threads = 8
///     campaign.sink    = sharded        # sharded | spool
///     monitor.ci_rel   = 0.10
///     dns.timeout_prob = 0.01
///     evolution.enabled        = true   # evolving-world delta stream
///     evolution.delta_rate     = 1.0
///     evolution.epoch_interval = 8
///
/// Unknown keys, duplicate keys, malformed numbers and out-of-domain
/// values are all hard errors — a scenario file that drifts from the
/// schema must fail loudly, never silently fall back to defaults.
struct ScenarioSpec {
  std::uint64_t world_seed = 2011;
  double scale = 1.0;
  core::CampaignConfig campaign;  ///< Paper defaults unless overridden.
  /// Evolving-world knobs; evolution.enabled = false leaves the world
  /// frozen (the exact pre-epoch campaign path).
  EvolutionSpec evolution;
};

/// Parse a scenario description from text. Throws v6mon::ParseError on
/// syntax errors (with a line number) and v6mon::ConfigError on values
/// outside their documented domain (including everything
/// MonitorConfig::validate rejects). This is an untrusted-byte boundary:
/// arbitrary input must either parse or throw — never crash, hang or
/// allocate unboundedly (see tests/fuzz/fuzz_config.cpp).
[[nodiscard]] ScenarioSpec parse_scenario(std::string_view text);

/// Open `path` and parse it. Throws v6mon::Error when unreadable.
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace v6mon::scenario
