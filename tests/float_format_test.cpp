// util::write_g6 against its oracle, std::to_chars(double(v), general, 6):
// a strided sweep over every float bit pattern plus the classes where a
// `%.6g` formatter goes wrong — signed zeros and specials, subnormals,
// powers of ten and their neighbours, half-way ties and significands
// that round up into the next decade.

#include "util/float_format.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>

namespace v6mon::util {
namespace {

float from_bits(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::uint32_t to_bits(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

std::string_view oracle(float v, char (&buf)[32]) {
  const auto r = std::to_chars(buf, buf + sizeof(buf), static_cast<double>(v),
                               std::chars_format::general, 6);
  return {buf, static_cast<std::size_t>(r.ptr - buf)};
}

/// Number of mismatches (reported, at most a few, with their bits).
int check(float v) {
  char want_buf[32];
  char got_buf[32];
  const std::string_view want = oracle(v, want_buf);
  char* const end = write_g6(got_buf, v);
  const std::string_view got(got_buf, static_cast<std::size_t>(end - got_buf));
  EXPECT_LE(got.size(), kG6MaxChars);
  if (got == want) return 0;
  ADD_FAILURE() << "bits 0x" << std::hex << to_bits(v) << ": got '" << got << "', want '"
                << want << "'";
  return 1;
}

TEST(WriteG6, StridedSweepOverAllBitPatterns) {
  // 4099 is odd, so the stride walks every exponent and both signs with
  // varied low fraction bits: ~1.05M patterns.
  int bad = 0;
  for (std::uint64_t bits = 0; bits <= UINT32_MAX && bad < 10; bits += 4099) {
    bad += check(from_bits(static_cast<std::uint32_t>(bits)));
  }
  EXPECT_EQ(bad, 0);
}

TEST(WriteG6, SignedZerosSpecialsAndExtremes) {
  using lim = std::numeric_limits<float>;
  for (const float v : {0.0f, -0.0f, lim::denorm_min(), -lim::denorm_min(), lim::min(),
                        -lim::min(), lim::max(), -lim::max(), lim::infinity(),
                        -lim::infinity(), lim::quiet_NaN(), -lim::quiet_NaN(),
                        lim::signaling_NaN(), from_bits(0x7f800001u),
                        from_bits(0xffc00001u), from_bits(0x007fffffu)}) {
    check(v);
  }
  char buf[32];
  EXPECT_EQ(std::string_view(buf, write_g6(buf, -0.0f)), "-0");
  EXPECT_EQ(std::string_view(buf, write_g6(buf, -lim::infinity())), "-inf");
  EXPECT_EQ(std::string_view(buf, write_g6(buf, -lim::quiet_NaN())), "-nan");
  EXPECT_EQ(std::string_view(buf, write_g6(buf, -lim::min())), "-1.17549e-38");
}

TEST(WriteG6, PowersOfTenAndTheirNeighbours) {
  for (int k = -45; k <= 38; ++k) {
    const float p = std::pow(10.0f, static_cast<float>(k));
    const float ten = static_cast<float>(std::pow(10.0, k));  // nearest float
    for (const float v : {p, ten}) {
      if (v == 0.0f || std::isinf(v)) continue;
      check(v);
      check(std::nextafter(v, 0.0f));
      check(std::nextafter(v, std::numeric_limits<float>::infinity()));
      check(-v);
    }
  }
}

TEST(WriteG6, HalfWayTiesOfSevenDigitIntegers) {
  // A 7-digit integer ending in 5 is exact as a float (it is below 2^24)
  // and sits half-way between two six-digit significands. The scaled
  // copies are rounded products, so they only come near the tie.
  for (std::uint32_t n = 1'000'005; n < 10'000'000; n += 10) check(static_cast<float>(n));
  for (std::uint32_t n = 1'000'005; n < 10'000'000; n += 9'990) {
    for (const float scale : {1e-7f, 1e-3f, 1e3f, 1e10f}) check(static_cast<float>(n) * scale);
  }
}

TEST(WriteG6, SignificandsRoundingIntoTheNextDecade) {
  // 9.999995-class values: the six-digit significand rounds up to 10^6
  // and the decimal exponent moves up by one (sometimes switching the
  // layout from fixed to scientific, as at 999999.5).
  for (int k = -44; k <= 38; ++k) {
    const double top = 9.999995 * std::pow(10.0, k);
    const float v = static_cast<float>(top);
    if (v == 0.0f || std::isinf(v)) continue;
    float lo = v;
    for (int step = 0; step < 4; ++step) lo = std::nextafter(lo, 0.0f);
    float probe = lo;
    for (int step = 0; step < 9 && !std::isinf(probe); ++step) {
      check(probe);
      probe = std::nextafter(probe, std::numeric_limits<float>::infinity());
    }
  }
  check(999999.5f);
  check(99999.95f);
  check(0.000999999f);
}

}  // namespace
}  // namespace v6mon::util
