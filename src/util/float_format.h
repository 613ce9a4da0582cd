#pragma once

#include <cstddef>

namespace v6mon::util {

/// Most characters write_g6 writes: "-1.17549e-38".
inline constexpr std::size_t kG6MaxChars = 12;

/// Write `v` as printf's `%.6g` of the float widened to double — the
/// bytes `std::to_chars(out, end, double(v), std::chars_format::general, 6)`
/// and `ostream << v` (default stream state) produce — and return one
/// past the last character written. Writes at most kG6MaxChars
/// characters and no terminator.
///
/// Integer-only and exact: v = M·2^E is scaled by 10^(5−d), with d the
/// decimal exponent, in 128-bit arithmetic and rounded half-to-even, so
/// every finite float takes the same path. ±0, ±inf, `nan` and `-nan`
/// print as std::to_chars prints them.
char* write_g6(char* out, float v);

}  // namespace v6mon::util
