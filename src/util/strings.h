#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace v6mon::util {

/// Split on a single-character delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

/// printf-style formatting into std::string.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// True if `s` consists only of decimal digits (and is non-empty).
[[nodiscard]] bool is_digits(std::string_view s);

/// `s` as one whole number of type T (an integer or a floating-point
/// type): nullopt when it is empty, out of range or has any character
/// the number does not use.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view s) {
  T out{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

/// Join elements with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace v6mon::util
