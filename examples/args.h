#pragma once

// Positional-argument parsing shared by the example programs: a bad
// argument prints one line and exits with status 2.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <type_traits>

#include "scenario/paper.h"
#include "util/error.h"
#include "util/strings.h"

namespace v6mon::examples {

/// A whole argument as a number; trailing characters are an error, not
/// ignored.
template <typename T>
T number_arg(const char* arg, const char* what) {
  const std::optional<T> out = util::parse_number<T>(arg);
  if (!out) {
    std::fprintf(stderr, "bad %s '%s' (want a %s)\n", what, arg,
                 std::is_integral_v<T> ? "non-negative integer" : "number");
    std::exit(2);
  }
  return *out;
}

/// A paper-world scale: a number inside scenario::paper_spec's range.
inline double scale_arg(const char* arg) {
  const double scale = number_arg<double>(arg, "scale");
  try {
    scenario::validate_paper_scale(scale);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "bad scale: %s\n", e.what());
    std::exit(2);
  }
  return scale;
}

}  // namespace v6mon::examples
