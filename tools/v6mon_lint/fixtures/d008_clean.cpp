// D008 fixture (clean): thread knobs resolved by the shared helper, a
// mention of hardware_concurrency in a comment or string, and the ALLOW
// escape for a probe that reports the host rather than sizing a pool.

#include <cstddef>
#include <thread>

namespace core {
std::size_t resolve_threads(std::size_t threads);
}

std::size_t analysis_threads(std::size_t threads) {
  // 0 = hardware, decided by core::resolve_threads (not by calling
  // std::thread::hardware_concurrency() here).
  return core::resolve_threads(threads);
}

const char* kHelp = "threads = 0 uses hardware_concurrency()";

unsigned host_cpus_for_manifest() {
  // V6MON_LINT_ALLOW(D008): reported in a run manifest, never used to
  // size a pool
  return std::thread::hardware_concurrency();
}
