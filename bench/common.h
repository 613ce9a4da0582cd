#pragma once

// Shared helpers for the bench binaries: printing a reproduced table
// with its CSV, and the standard main body.

#include <benchmark/benchmark.h>

#include <string>

#include "util/table.h"

namespace v6mon::bench {

/// Print a reproduced table plus the paper's published reference, and
/// write the table's CSV to bench/out/<csv_name>.
void print_result(const std::string& title, const util::TextTable& table,
                  const std::string& paper_reference, const std::string& csv_name);

/// Standard main body: print results via `emit`, then run benchmarks.
int run_bench_main(int argc, char** argv, void (*emit)());

}  // namespace v6mon::bench

#define V6MON_BENCH_MAIN(emit_fn)                             \
  int main(int argc, char** argv) {                           \
    return ::v6mon::bench::run_bench_main(argc, argv, emit_fn); \
  }
