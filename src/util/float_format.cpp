#include "util/float_format.h"

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace v6mon::util {

namespace {

__extension__ typedef unsigned __int128 u128;

/// Six significant digits: a rounded significand lies in [10^5, 10^6).
constexpr std::uint64_t kSignificandEnd = 1'000'000;

/// 5^k for every scale write_g6 uses. The decimal exponent d of a finite
/// float lies in [−45, 38], so k = 5 − d lies in [−33, 50].
constexpr std::array<u128, 51> kPow5 = [] {
  std::array<u128, 51> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * 5;
  return p;
}();

/// n / 2^shift rounded half to even; shift in [1, 127].
std::uint64_t shift_round(u128 n, int shift) {
  const u128 q = n >> shift;
  const u128 rem = n - (q << shift);
  const u128 half = u128{1} << (shift - 1);
  return static_cast<std::uint64_t>(q) + (rem > half || (rem == half && (q & 1) != 0));
}

/// n / den rounded half to even.
std::uint64_t div_round(u128 n, u128 den) {
  const u128 q = n / den;
  const u128 rem2 = (n - q * den) * 2;
  return static_cast<std::uint64_t>(q) + (rem2 > den || (rem2 == den && (q & 1) != 0));
}

/// m·2^e·10^k rounded half to even, exactly. Every intermediate fits in
/// 128 bits. For k ≥ 0: m < 2^24 and 5^44 < 2^103; k ≥ 45 means
/// v < 10^−39, a subnormal with m < 10^(d+1)·2^149, so m·5^k stays
/// below 2^127. For k < 0: m·2^(e+k) < 2^95 and 5^33·2^6 < 2^83.
std::uint64_t scaled(std::uint32_t m, int e, int k) {
  const int t = e + k;
  if (k >= 0) {
    const u128 n = u128{m} * kPow5[static_cast<std::size_t>(k)];
    return t >= 0 ? static_cast<std::uint64_t>(n << t) : shift_round(n, -t);
  }
  const u128 p = kPow5[static_cast<std::size_t>(-k)];
  return t >= 0 ? div_round(u128{m} << t, p) : div_round(m, p << -t);
}

char* copy(char* out, const char* s, std::size_t n) {
  std::memcpy(out, s, n);
  return out + n;
}

}  // namespace

char* write_g6(char* out, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  if ((bits >> 31) != 0) *out++ = '-';
  const std::uint32_t biased = (bits >> 23) & 0xff;
  const std::uint32_t fraction = bits & 0x7fffff;
  if (biased == 0xff) return copy(out, fraction != 0 ? "nan" : "inf", 3);
  if (biased == 0 && fraction == 0) {
    *out++ = '0';
    return out;
  }

  // v = m·2^e exactly, m < 2^24.
  const std::uint32_t m = biased != 0 ? fraction | (1u << 23) : fraction;
  const int e = biased != 0 ? static_cast<int>(biased) - 150 : -149;
  // floor(log10 v) is floor(e2·log10 2) or one more, e2 = floor(log2 v);
  // 78913 / 2^18 gives floor(e2·log10 2) exactly for |e2| < 1650.
  const int e2 = static_cast<int>(std::bit_width(m)) - 1 + e;
  int d = (e2 * 78913) >> 18;
  std::uint64_t q = scaled(m, e, 5 - d);
  // A low estimate, or a significand that rounded up to 10^6, moves to the
  // next decade; the rescale starts from the exact value again.
  while (q >= kSignificandEnd) q = scaled(m, e, 5 - ++d);

  char digits[6];
  for (int i = 5; i >= 0; --i) {
    digits[i] = static_cast<char>('0' + q % 10);
    q /= 10;
  }
  std::size_t n = 6;  // significant digits after stripping trailing zeros
  while (digits[n - 1] == '0') --n;

  if (d < -4 || d >= 6) {
    *out++ = digits[0];
    if (n > 1) {
      *out++ = '.';
      out = copy(out, digits + 1, n - 1);
    }
    const int a = d < 0 ? -d : d;
    const char exp[4] = {'e', d < 0 ? '-' : '+', static_cast<char>('0' + a / 10),
                         static_cast<char>('0' + a % 10)};
    return copy(out, exp, sizeof(exp));
  }
  if (d < 0) {
    out = copy(out, "0.0000", static_cast<std::size_t>(1 - d));
    return copy(out, digits, n);
  }
  const auto whole = static_cast<std::size_t>(d) + 1;
  if (n <= whole) return copy(out, digits, whole);
  out = copy(out, digits, whole);
  *out++ = '.';
  return copy(out, digits + whole, n - whole);
}

}  // namespace v6mon::util
