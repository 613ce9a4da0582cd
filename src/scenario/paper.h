#pragma once

#include <cstdint>
#include <vector>

#include "core/campaign.h"
#include "scenario/world_builder.h"

namespace v6mon::scenario {

/// Calendar anchors of the paper's campaign, as round indices. One round
/// ~ one to two weeks; round 0 = Oct 2010 (start of Fig. 1's window; the
/// Penn monitor predates it and is simply active from round 0).
struct PaperCalendar {
  std::uint32_t num_rounds = 40;
  std::uint32_t iana_depletion_round = 16;  ///< Feb 3, 2011.
  std::uint32_t w6d_round = 34;             ///< June 8, 2011.

  /// Adoption phase a round falls in, delimiting the two inflection
  /// points of Fig. 1 (and the delta-rate multipliers the evolution
  /// generator applies per phase).
  enum class Phase { kPreDepletion, kPostDepletion, kPostW6d };

  [[nodiscard]] Phase phase_of(std::uint32_t round) const {
    if (round >= w6d_round) return Phase::kPostW6d;
    if (round >= iana_depletion_round) return Phase::kPostDepletion;
    return Phase::kPreDepletion;
  }

  /// True exactly at the rounds where Fig. 1 shows a step (the rounds
  /// the evolution generator schedules its burst epochs on).
  [[nodiscard]] bool is_inflection(std::uint32_t round) const {
    return round == iana_depletion_round || round == w6d_round;
  }

  /// Rounds the default evolving-world timeline advances on: every
  /// `interval` rounds plus both inflection rounds, strictly ascending,
  /// always within (0, num_rounds]. Round 0 is never an epoch boundary —
  /// epoch 0 *is* the round-0 world.
  [[nodiscard]] std::vector<std::uint32_t> epoch_rounds(std::uint32_t interval) const;
};

/// Largest scale a paper world can be built at. The address plan gives
/// every AS one /16 of the 16.0.0.0/4 IPv4 pool (4096 slots), and a paper
/// world has 24 + floor(240 s) + floor(2750 s) ASes: 10 tier-1s, 8 CDNs
/// and 6 vantage points plus the scaled transit and stub tiers. That is
/// 4090 ASes at s = 1.36 and 4119 at 1.37.
inline constexpr double kMaxPaperScale = 1.36;

/// Throws ConfigError naming the limit unless 0 < scale <= kMaxPaperScale.
void validate_paper_scale(double scale);

/// Scale factor: 1.0 builds the default reproduction world (hundreds of
/// thousands of sites, thousands of ASes); smaller values shrink both for
/// quick tests. Bounded by kMaxPaperScale.
[[nodiscard]] WorldSpec paper_spec(std::uint64_t seed, double scale = 1.0);

/// Convenience: build the paper world.
[[nodiscard]] core::World build_paper_world(std::uint64_t seed, double scale = 1.0);

/// The default monitoring configuration (paper constants: 6% identity,
/// 10%/95% CI target, <=25 parallel sites).
[[nodiscard]] core::CampaignConfig paper_campaign_config(std::uint64_t seed);

/// Indices of the four AS_PATH-capable vantage points in paper order
/// (Penn, Comcast, LU, UPCB) within the world's vantage_points vector.
struct PaperVps {
  std::size_t penn = 0;
  std::size_t comcast = 0;
  std::size_t lu = 0;
  std::size_t upcb = 0;
};
[[nodiscard]] PaperVps paper_vp_indices(const core::World& world);

}  // namespace v6mon::scenario
