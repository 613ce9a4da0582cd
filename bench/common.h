#pragma once

// Shared helpers for the bench binaries: the seed and scale knobs read
// from the environment.

#include <benchmark/benchmark.h>

#include <cstdint>

namespace v6mon::bench {

/// V6MON_BENCH_SEED, or `fallback` when it is unset.
std::uint64_t seed_from_env(std::uint64_t fallback);

/// V6MON_BENCH_SCALE as a paper-world scale, or `fallback` when it is
/// unset.
double scale_from_env(double fallback);

// Both print one line and exit with status 2 when the variable is not
// one whole number (or, for the scale, lies outside paper_spec's range).

}  // namespace v6mon::bench
