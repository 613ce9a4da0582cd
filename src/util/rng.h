#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace v6mon::util {

/// MT19937-64 with lazy seeding and lazy per-word generation. Produces
/// the exact output sequence of std::mt19937_64 (same seeding
/// recurrence, twist, and tempering — pinned against libstdc++ by the
/// RNG tests), but pays only for the words its draws read. The
/// constructor stores the seed word alone. Draw i reads words i, i + 1
/// and i + 156 (mod 312), so the first draw seeds words 1..156 and each
/// later draw seeds at most one more, until all 312 are seeded after
/// draw 155. The twist runs one word per draw instead of regenerating
/// the whole 312-word block on the first draw, and applies the matrix
/// through a mask rather than a branch on the low bit, which goes each
/// way half the time. The monitoring hot path seeds a fresh
/// per-(site, round) stream and often reads one word before discarding
/// it, and an eager seeding plus block regeneration would spend most of
/// its work on words nobody reads. A stream that never draws costs one
/// word. `prime` seeds the first draw's words of several fresh streams
/// at once: the seeding recurrence is a serial chain, and interleaving
/// independent chains overlaps their latencies. Satisfies
/// UniformRandomBitGenerator with the same min()/max() as
/// std::mt19937_64.
class Mt64Engine {
 public:
  using result_type = std::uint64_t;

  /// Engines `prime` seeds together.
  static constexpr std::size_t kPrimeLanes = 4;

  explicit Mt64Engine(result_type seed) { state_[0] = seed; }
  /// Copies carry the seeded words only: the rest are not yet set, and
  /// the implicit copy would read them.
  Mt64Engine(const Mt64Engine& other) : seeded_(other.seeded_), next_(other.next_) {
    std::copy_n(other.state_.begin(), seeded_, state_.begin());
  }
  Mt64Engine& operator=(const Mt64Engine& other) {
    if (this != &other) {
      seeded_ = other.seeded_;
      next_ = other.next_;
      std::copy_n(other.state_.begin(), seeded_, state_.begin());
    }
    return *this;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Seed the words the first draw reads (1..156) of up to kPrimeLanes
  /// fresh engines, their recurrences interleaved. Requires every engine
  /// to be fresh (never drawn from, not yet primed). A primed engine
  /// draws exactly what an unprimed one would.
  static void prime(std::span<Mt64Engine* const> engines);

  result_type operator()() {
    const std::uint32_t i = next_;
    next_ = i + 1 == kN ? 0 : i + 1;
    // Only draws 0..155 find unseeded words, and each needs words up to
    // i + kM (at most 311).
    if (seeded_ < kN) seed_through(i + kM);
    // In-place single-step twist, equivalent to full-block regeneration:
    // position i reads positions i+1 and i+m (mod n), which the block
    // loop has either already rewritten (indices below i) or not yet
    // touched (indices above i) — exactly the values this stepwise
    // update sees, so the state after any k draws matches the block
    // implementation word for word.
    const result_type y = (state_[i] & kUpperMask) |
                          (state_[i + 1 == kN ? 0 : i + 1] & kLowerMask);
    result_type z = state_[i >= kN - kM ? i - (kN - kM) : i + kM] ^ (y >> 1) ^
                    (kMatrixA & (0 - (y & 1u)));
    state_[i] = z;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::uint32_t kN = 312;
  static constexpr std::uint32_t kM = 156;
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kUpperMask = 0xffffffff80000000ULL;
  static constexpr result_type kLowerMask = 0x7fffffffULL;
  static constexpr result_type kInitMult = 6364136223846793005ULL;

  /// Run the seeding recurrence over words seeded_..last. The previous
  /// word stays in a register: re-reading it from state_ puts a
  /// store-to-load round trip on the serial chain.
  void seed_through(std::uint32_t last) {
    result_type prev = state_[seeded_ - 1];
    for (std::uint32_t j = seeded_; j <= last; ++j) {
      prev = kInitMult * (prev ^ (prev >> 62)) + j;
      state_[j] = prev;
    }
    seeded_ = last + 1;
  }

  /// Words [0, seeded_) hold seeded (or already twisted) values.
  std::array<std::uint64_t, kN> state_;
  std::uint32_t seeded_ = 1;
  std::uint32_t next_ = 0;
};

/// One engine word as the nearest double (round to nearest even), like a
/// plain conversion but without the branch on the sign bit that x86-64
/// emits for uint64 → double below AVX-512.
[[nodiscard]] inline double word_to_double(std::uint64_t u) {
  // Both 32-bit halves convert exactly and the scaled high half stays
  // exact, so the one rounding is the sum's.
  return static_cast<double>(static_cast<std::int64_t>(u >> 32)) * 0x1p32 +
         static_cast<double>(static_cast<std::int64_t>(u & 0xffffffffU));
}

/// One engine word as a uniform double in [0, 1):
/// std::generate_canonical<double, 53> over a 64-bit engine.
[[nodiscard]] inline double word_to_unit(std::uint64_t u) {
  // The largest double below 1.0: std::nextafter(1.0, 0.0).
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  // One word divided by 2^64 (exact, a power of two). Words within 2^10
  // of 2^64 round up to 1.0, which the clamp maps to the largest double
  // below it, as libstdc++ does.
  return std::min(word_to_double(u) * 0x1p-64, kBelowOne);
}

/// The accepted pair of one run of Marsaglia's polar method (libstdc++'s
/// normal_distribution): the y variate and r2 = x*x + y*y, in (0, 1].
/// `polar_normal` and `lognormal_of` finish a pair into the variate the
/// distributions return. A caller that must consume the stream now but
/// can compute the value later (or on another thread) keeps the pair.
struct PolarPair {
  double y = 0.0;
  double r2 = 1.0;
};

/// The standard normal variate of an accepted pair. The x variate never
/// enters: a fresh std::normal_distribution per call discards it.
[[nodiscard]] inline double polar_normal(PolarPair p) {
  return p.y * std::sqrt(-2 * std::log(p.r2) / p.r2);
}

/// libstdc++'s lognormal_distribution(mu, sigma) over an accepted pair:
/// its inner normal(0, 1) keeps `* 1.0 + 0.0`, which turns a -0.0 variate
/// into +0.0. The one expression behind Rng::lognormal_median and every
/// deferred lognormal, so the two cannot drift apart.
[[nodiscard]] inline double lognormal_of(PolarPair p, double mu, double sigma) {
  return std::exp(sigma * (polar_normal(p) * 1.0 + 0.0) + mu);
}

/// Deterministic random number source.
///
/// All randomness in the simulator flows from a single 64-bit root seed.
/// Subsystems obtain independent streams with `child("name")`, which
/// derives a new seed by hashing the parent seed with the name. Two
/// children with different names are statistically independent; the same
/// (seed, name) pair always yields the same stream, so every experiment
/// is reproducible bit-for-bit regardless of evaluation order elsewhere.
///
/// The distributions are written expression for expression after
/// libstdc++ 12's algorithm over std::mt19937_64 (the toolchain the
/// goldens were made with): generate_canonical, Marsaglia's polar normal,
/// and Lemire's bounded integers. So the streams do not depend on the
/// standard library's choice of algorithm. The one-word draws (uniform,
/// chance) and the polar loop are inline here, as hot generators call
/// them once per site; the rest live in rng.cpp.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Derive an independent child stream keyed by `name` (and an optional
  /// integer discriminator, e.g. a round or site index).
  [[nodiscard]] Rng child(std::string_view name, std::uint64_t index = 0) const;

  /// Seed of the stream `child(name, index)` would produce:
  /// `Rng(child_seed(...))` and `child(...)` are bit-identical streams.
  /// For consumers that build the stream in place, or only keep its seed.
  [[nodiscard]] std::uint64_t child_seed(std::string_view name,
                                         std::uint64_t index = 0) const;

  /// The seed this stream was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);
  std::uint32_t uniform_u32(std::uint32_t lo, std::uint32_t hi);
  int uniform_int(int lo, int hi);
  std::size_t index(std::size_t size);  ///< Uniform in [0, size-1]; requires size > 0.

  /// Uniform real in [0, 1).
  double uniform01();
  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) { return word_to_unit(engine_()) * (hi - lo) + lo; }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return word_to_unit(engine_()) < p;
  }

  /// The draws of one normal variate, left unfinished: runs the polar
  /// rejection loop and returns the accepted pair. `normal` and
  /// `lognormal_median` consume exactly these words.
  PolarPair polar_pair() {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * word_to_unit(engine_()) - 1.0;
      y = 2.0 * word_to_unit(engine_()) - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return {y, r2};
  }

  /// Normal draw.
  double normal(double mean, double stddev);

  /// Lognormal draw parameterized by the *target* median and the sigma of
  /// the underlying normal. median = exp(mu).
  double lognormal_median(double median, double sigma);

  /// Zipf-like rank draw over [1, n] with exponent s: P(r) ~ 1/r^s.
  /// One uniform draw through the inverse CDF of the continuous 1/x^s
  /// envelope, truncated and clamped to [1, n]; O(1).
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::size_t j = index(i + 1);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Pick a uniformly random element; requires non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[index(v.size())];
  }

  /// The raw engine, for lock-step priming (Mt64Engine::prime).
  Mt64Engine& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Mt64Engine engine_;
};

/// Stable 64-bit FNV-1a hash used for seed derivation (not cryptographic).
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t seed, std::string_view name,
                                         std::uint64_t index);

}  // namespace v6mon::util
