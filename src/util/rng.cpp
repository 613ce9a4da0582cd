#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace v6mon::util {

std::uint64_t hash_combine(std::uint64_t seed, std::string_view name,
                           std::uint64_t index) {
  // FNV-1a over (seed || name || index), followed by a splitmix64 finisher
  // so that nearby seeds map to distant states.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(seed >> (8 * i)));
  for (char c : name) mix_byte(static_cast<unsigned char>(c));
  for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(index >> (8 * i)));
  // splitmix64 finisher
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

Rng Rng::child(std::string_view name, std::uint64_t index) const {
  return Rng(hash_combine(seed_, name, index));
}

std::uint64_t Rng::child_seed(std::string_view name, std::uint64_t index) const {
  return hash_combine(seed_, name, index);
}

namespace {

__extension__ typedef unsigned __int128 Wide;

/// Uniform in [0, span]: libstdc++'s uniform_int_distribution over a
/// 64-bit engine. A full-width span takes one raw word; any other runs
/// Lemire's nearly-divisionless multiply-shift on span + 1 (Lemire, "Fast
/// Random Integer Generation in an Interval", TOMACS 2019), which divides
/// only when the first product's low word falls below the range.
std::uint64_t bounded(Mt64Engine& engine, std::uint64_t span) {
  if (span == ~std::uint64_t{0}) return engine();
  const std::uint64_t range = span + 1;
  Wide product = Wide{engine()} * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      product = Wide{engine()} * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

}  // namespace

void Mt64Engine::prime(std::span<Mt64Engine* const> engines) {
  V6MON_REQUIRE(engines.size() <= kPrimeLanes, "too many engines to prime at once");
  if (engines.empty()) return;
  // Spare lanes repeat the last engine: they write the same values to the
  // same words.
  std::array<result_type*, kPrimeLanes> words{};
  std::array<result_type, kPrimeLanes> prev{};
  for (std::size_t lane = 0; lane < kPrimeLanes; ++lane) {
    Mt64Engine& e = *engines[std::min(lane, engines.size() - 1)];
    V6MON_REQUIRE(e.seeded_ == 1 && e.next_ == 0, "prime needs a fresh engine");
    words[lane] = e.state_.data();
    prev[lane] = e.state_[0];
  }
  for (std::uint32_t j = 1; j <= kM; ++j) {
    for (std::size_t lane = 0; lane < kPrimeLanes; ++lane) {
      prev[lane] = kInitMult * (prev[lane] ^ (prev[lane] >> 62)) + j;
      words[lane][j] = prev[lane];
    }
  }
  for (Mt64Engine* e : engines) e->seeded_ = kM + 1;
}

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  V6MON_REQUIRE(lo <= hi);
  return bounded(engine_, hi - lo) + lo;
}

std::uint32_t Rng::uniform_u32(std::uint32_t lo, std::uint32_t hi) {
  V6MON_REQUIRE(lo <= hi);
  return static_cast<std::uint32_t>(bounded(engine_, hi - lo) + lo);
}

int Rng::uniform_int(int lo, int hi) {
  V6MON_REQUIRE(lo <= hi);
  // In 64-bit unsigned arithmetic, like libstdc++: a negative bound
  // sign-extends, and the sum wraps back into int's range.
  const auto ulo = static_cast<std::uint64_t>(lo);
  const auto uhi = static_cast<std::uint64_t>(hi);
  return static_cast<int>(bounded(engine_, uhi - ulo) + ulo);
}

std::size_t Rng::index(std::size_t size) {
  V6MON_REQUIRE(size > 0);
  return bounded(engine_, size - 1);
}

double Rng::uniform01() {
  // uniform(0.0, 1.0): the `* 1.0 + 0.0` is the identity on [0, 1).
  return word_to_unit(engine_());
}

double Rng::normal(double mean, double stddev) {
  return polar_normal(polar_pair()) * stddev + mean;
}

double Rng::lognormal_median(double median, double sigma) {
  V6MON_REQUIRE(median > 0.0);
  return lognormal_of(polar_pair(), std::log(median), sigma);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  V6MON_REQUIRE(n >= 1);
  if (n == 1) return 1;
  // Inverse-CDF on the continuous envelope, then clamp. Accurate enough
  // for workload generation (exact normalization is not required).
  if (s == 1.0) s = 1.0000001;  // avoid the log singularity
  const double one_minus_s = 1.0 - s;
  const double hn = (std::pow(static_cast<double>(n), one_minus_s) - 1.0) / one_minus_s;
  const double u = uniform01();
  const double x = std::pow(u * hn * one_minus_s + 1.0, 1.0 / one_minus_s);
  auto r = static_cast<std::uint64_t>(x);
  if (r < 1) r = 1;
  if (r > n) r = n;
  return r;
}

}  // namespace v6mon::util
