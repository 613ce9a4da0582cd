#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "scenario/paper.h"
#include "util/error.h"
#include "util/strings.h"

namespace v6mon::bench {

namespace {

template <typename T>
T number_from_env(const char* name, T fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::optional<T> out = util::parse_number<T>(v);
  if (!out) {
    std::fprintf(stderr, "bad %s '%s' (want a number)\n", name, v);
    std::exit(2);
  }
  return *out;
}

}  // namespace

std::uint64_t seed_from_env(std::uint64_t fallback) {
  return number_from_env("V6MON_BENCH_SEED", fallback);
}

double scale_from_env(double fallback) {
  const double scale = number_from_env("V6MON_BENCH_SCALE", fallback);
  try {
    scenario::validate_paper_scale(scale);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "bad V6MON_BENCH_SCALE: %s\n", e.what());
    std::exit(2);
  }
  return scale;
}

}  // namespace v6mon::bench
