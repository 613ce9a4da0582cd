// Fuzz harness for the spool replay reader (src/core/spool.h) — the
// binary untrusted-byte boundary: a spool file may come from another
// machine, an interrupted run, or an attacker. The contract under test:
// for ANY byte string, replay_spool either replays it into a ResultsDb
// or throws v6mon::Error — it never crashes, never trips a contract
// check, and never allocates out of proportion to the input.
//
// Built two ways (tests/fuzz/CMakeLists.txt):
//  * V6MON_FUZZ=ON (clang): linked with -fsanitize=fuzzer; libFuzzer
//    drives LLVMFuzzerTestOneInput with coverage-guided mutations of
//    the seed corpus in tests/fuzz/corpus/spool/.
//  * otherwise: fuzz_driver_main.cpp provides a main() that replays
//    every corpus file through the same entry point, so the boundary
//    stays exercised by ctest on every toolchain.

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/results.h"
#include "core/spool.h"
#include "util/error.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  v6mon::core::ResultsDb db;
  try {
    v6mon::core::replay_spool(in, db);
    // Inputs that replay must also survive the analysis handoff: the
    // finalize sort and site index take whatever ids replay accepted.
    db.finalize();
  } catch (const v6mon::Error&) {
    // Rejected input — the expected outcome for almost all mutations.
  }
  return 0;
}
