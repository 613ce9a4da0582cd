#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
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
/// the whole 312-word block on the first draw. The monitoring hot path
/// seeds a fresh per-(site, round) stream and often reads one word
/// before discarding it, and an eager seeding plus block regeneration
/// would spend most of its work on words nobody reads. A stream that
/// never draws costs one word. Satisfies UniformRandomBitGenerator with
/// the same min()/max() as std::mt19937_64, so <random> distributions
/// over it draw identical values.
class Mt64Engine {
 public:
  using result_type = std::uint64_t;

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
                    ((y & 1u) != 0 ? kMatrixA : 0);
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

/// Deterministic random number source.
///
/// All randomness in the simulator flows from a single 64-bit root seed.
/// Subsystems obtain independent streams with `child("name")`, which
/// derives a new seed by hashing the parent seed with the name. Two
/// children with different names are statistically independent; the same
/// (seed, name) pair always yields the same stream, so every experiment
/// is reproducible bit-for-bit regardless of evaluation order elsewhere.
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
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Normal draw.
  double normal(double mean, double stddev);

  /// Lognormal draw parameterized by the *target* median and the sigma of
  /// the underlying normal. median = exp(mu).
  double lognormal_median(double median, double sigma);

  /// Block fill: out[i] is the i-th draw of `lognormal_median(median, sigma)`.
  /// Consumes engine draws in exactly the order of the equivalent scalar
  /// loop — bit-for-bit identical streams, pinned by the RNG sequence test.
  /// (Each element uses a fresh distribution object on purpose: the polar
  /// method caches a second normal inside the distribution, and the scalar
  /// call discards that cache every time.)
  void fill_lognormal_median(double median, double sigma, std::span<double> out);

  /// Block fill of Bernoulli trials: out[i] = chance(p) ? 1 : 0. Consumes
  /// no draws when p <= 0 or p >= 1, exactly like the scalar call.
  void fill_chance(double p, std::span<std::uint8_t> out);

  /// Exponential draw with the given mean.
  double exponential(double mean);

  /// Pareto draw with scale `xmin` and shape `alpha` (> 0).
  double pareto(double xmin, double alpha);

  /// Zipf-like rank draw over [1, n] with exponent s: P(r) ~ 1/r^s.
  /// Uses rejection-inversion; O(1) expected time.
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

  /// Access to the raw engine, for interoperating with <random>.
  Mt64Engine& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Mt64Engine engine_;
};

/// Stable 64-bit FNV-1a hash used for seed derivation (not cryptographic).
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t seed, std::string_view name,
                                         std::uint64_t index);

}  // namespace v6mon::util
