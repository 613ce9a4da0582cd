// D008 fixture: a private "0 = hardware" thread rule. Every such knob
// resolves through core::resolve_threads (src/core/thread_pool.cpp, the
// only file the rule exempts), so two stages cannot size their pools by
// different rules.

#include <algorithm>
#include <cstddef>
#include <thread>

std::size_t resolve_build_threads(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());  // EXPECT-LINT: D008
}

std::size_t pool_size() {
  using std::thread;
  return thread::hardware_concurrency();  // EXPECT-LINT: D008
}
