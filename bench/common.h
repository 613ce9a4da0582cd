#pragma once

// Shared helpers for the bench binaries: printing a reproduced table
// with its CSV, and the standard main body.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "util/table.h"

namespace v6mon::bench {

/// Print a reproduced table plus the paper's published reference, and
/// write the table's CSV to bench/out/<csv_name>.
void print_result(const std::string& title, const util::TextTable& table,
                  const std::string& paper_reference, const std::string& csv_name);

/// V6MON_BENCH_SEED, or `fallback` when it is unset.
std::uint64_t seed_from_env(std::uint64_t fallback);

/// V6MON_BENCH_SCALE as a paper-world scale, or `fallback` when it is
/// unset.
double scale_from_env(double fallback);

// Both print one line and exit with status 2 when the variable is not
// one whole number (or, for the scale, lies outside paper_spec's range).

/// Standard main body: print results via `emit`, then run benchmarks.
int run_bench_main(int argc, char** argv, void (*emit)());

}  // namespace v6mon::bench

#define V6MON_BENCH_MAIN(emit_fn)                             \
  int main(int argc, char** argv) {                           \
    return ::v6mon::bench::run_bench_main(argc, argv, emit_fn); \
  }
