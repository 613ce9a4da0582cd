#pragma once

// The serial reference every campaign schedule is compared against. It
// drives a Campaign through its public per-round API in fixed loop
// orders, so it stays independent of the epoch-segment schedule that
// Campaign::run() uses.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string_view>

#include "core/campaign.h"

namespace v6mon::core {

/// Runs every regular round, then W6D, then finalize() on a campaign
/// configured with threads = 1. Frozen worlds run vantage point by
/// vantage point; evolving worlds run round by round, applying the
/// round's epochs with advance_world(r) before any run_round(vp, r).
/// `after_round(r)`, when given, runs once every vantage point has run
/// round r — round-major order, so evolving worlds only.
inline void run_reference_schedule(
    Campaign& campaign, bool evolving,
    const std::function<void(std::uint32_t)>& after_round = {}) {
  ASSERT_EQ(campaign.config().threads, 1u) << "the reference schedule is serial";
  ASSERT_TRUE(evolving || !after_round) << "per-round hooks need round-major order";
  const World& world = campaign.world();
  const std::size_t num_vps = world.vantage_points.size();
  if (evolving) {
    for (std::uint32_t round = 0; round <= world.num_rounds; ++round) {
      campaign.advance_world(round);
      for (std::size_t vp = 0; vp < num_vps; ++vp) campaign.run_round(vp, round);
      if (after_round) after_round(round);
    }
  } else {
    for (std::size_t vp = 0; vp < num_vps; ++vp) {
      for (std::uint32_t round = 0; round <= world.num_rounds; ++round) {
        campaign.run_round(vp, round);
      }
    }
  }
  campaign.run_w6d();
  campaign.finalize();
}

/// FNV-1a-64 of a byte dump, for pinning campaign output bytes.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace v6mon::core
