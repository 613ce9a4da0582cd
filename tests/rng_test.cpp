#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "util/contracts.h"

namespace v6mon::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_u64(0, 1'000'000), b.uniform_u64(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(42), b(43);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_u64(0, 1'000'000) == b.uniform_u64(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ChildStreamsAreIndependentAndStable) {
  Rng root(7);
  Rng c1 = root.child("topology");
  Rng c2 = root.child("topology");
  Rng c3 = root.child("sites");
  EXPECT_EQ(c1.seed(), c2.seed());
  EXPECT_NE(c1.seed(), c3.seed());
  // Indexed children differ from each other and from index 0.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) seeds.insert(root.child("round", i).seed());
  EXPECT_EQ(seeds.size(), 64u);
}

// The campaign's per-(vp, round) order-shuffle streams are derived by
// chaining: child("order", vp).child("round", round). The retired
// single-index packing ((vp << 20) | round) collided the moment a round
// number reached 2^20 or a packed value coincided across (vp, round)
// pairs; chaining keys each coordinate independently, so no two pairs —
// even with deliberately aliasing values like (1, 0) vs (0, 1 << 20) —
// may share a stream. campaign.cpp relies on this test for that claim.
TEST(Rng, ChainedChildKeysHaveNoCrossPairCollisions) {
  Rng root(2011);
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> seen;
  const auto probe = [&](std::uint64_t vp, std::uint64_t round) {
    const std::uint64_t seed = root.child("order", vp).child("round", round).seed();
    const auto [it, inserted] = seen.emplace(seed, std::make_pair(vp, round));
    EXPECT_TRUE(inserted) << "(" << vp << "," << round << ") collides with ("
                          << it->second.first << "," << it->second.second << ")";
  };
  // Dense small grid plus the exact aliasing pairs of the old packing:
  // (vp, round) and (vp - 1, round + 2^20) packed to the same value.
  for (std::uint64_t vp = 0; vp < 16; ++vp) {
    for (std::uint64_t round = 0; round < 64; ++round) probe(vp, round);
  }
  for (std::uint64_t vp = 1; vp < 8; ++vp) {
    for (std::uint64_t round = 0; round < 8; ++round) {
      probe(vp - 1, round + (vp << 20));
    }
  }
}

TEST(Rng, ChildDoesNotPerturbParent) {
  Rng a(5), b(5);
  (void)a.child("x");
  EXPECT_EQ(a.uniform_u64(0, 1 << 30), b.uniform_u64(0, 1 << 30));
}

TEST(Rng, UniformBounds) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = r.uniform01();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, IndexCoversRange) {
  Rng r(2);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, ChanceExtremes) {
  Rng r(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-0.5));
    EXPECT_TRUE(r.chance(1.5));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng r(4);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(5);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng r(6);
  std::vector<double> xs;
  const int n = 20001;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(r.lognormal_median(5.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], 5.0, 0.25);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, ZipfRangeAndSkew) {
  Rng r(8);
  std::map<std::uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto v = r.zipf(1000, 1.0);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    ++counts[v];
  }
  // Rank 1 must dominate rank 100 heavily under s=1.
  EXPECT_GT(counts[1], counts[100] * 10);
}

TEST(Rng, ZipfDegenerate) {
  Rng r(9);
  EXPECT_EQ(r.zipf(1, 1.2), 1u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  r.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, ShuffleSmall) {
  Rng r(11);
  std::vector<int> empty;
  r.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  r.shuffle(one);
  EXPECT_EQ(one[0], 42);
}

TEST(Mt64Engine, MatchesStdMt19937_64) {
  // The lazy single-step engine must reproduce libstdc++'s mt19937_64
  // word for word — every distribution draw in the simulator rides on it.
  // 1000 draws cross three 312-word twist blocks, so both the intra-block
  // stepping and the wraparound match.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::uint64_t{0xdeadbeef}, std::uint64_t{0x0123456789abcdef}}) {
    std::mt19937_64 ref(seed);
    Mt64Engine lazy(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(lazy(), ref()) << "seed=" << seed << " draw=" << i;
    }
  }
}

TEST(Mt64Engine, RangeMatchesStd) {
  static_assert(Mt64Engine::min() == std::mt19937_64::min());
  static_assert(Mt64Engine::max() == std::mt19937_64::max());
}

TEST(Rng, ChildSeedMatchesChild) {
  const Rng root(99);
  Rng eager = root.child("monitor", 7);
  Rng reseeded(root.child_seed("monitor", 7));
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(eager.uniform_u64(0, ~std::uint64_t{0}),
              reseeded.uniform_u64(0, ~std::uint64_t{0}));
  }
}

TEST(Mt64Engine, LazySeedingMatchesStdAtEveryStreamLength) {
  // The engine seeds its words as draws first read them: draw i needs
  // words up to i + 156, so 155/156/157 straddle the end of seeding and
  // 311/312/313 the first twist block. At each length, a copy of the
  // engine (Rng objects are copied mid-stream) and the original keep
  // drawing the standard sequence; so does a copy-assigned engine.
  // Length 0 is a stream that never drew, copied before its first draw.
  // Every case runs unprimed (lanes = 0) and with 1 to 4 engines primed
  // together: a primed engine draws exactly what an unprimed one draws.
  constexpr std::uint64_t kSeed = 0x0123456789abcdef;
  for (std::size_t lanes = 0; lanes <= Mt64Engine::kPrimeLanes; ++lanes) {
    for (const int n : {0, 1, 155, 156, 157, 311, 312, 313, 1000}) {
      std::vector<Mt64Engine> engines;
      std::vector<Mt64Engine*> primed;
      for (std::size_t k = 0; k < std::max<std::size_t>(lanes, 1); ++k) {
        engines.emplace_back(kSeed + k);
      }
      for (std::size_t k = 0; k < lanes; ++k) primed.push_back(&engines[k]);
      Mt64Engine::prime(primed);
      for (std::size_t k = 0; k < engines.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "lanes=" << lanes << " engine=" << k
                                          << " n=" << n);
        Mt64Engine& engine = engines[k];
        std::mt19937_64 ref(kSeed + k);
        for (int i = 0; i < n; ++i) ASSERT_EQ(engine(), ref()) << "draw=" << i;
        Mt64Engine copy = engine;
        Mt64Engine assigned(1);
        (void)assigned();
        assigned = engine;
        std::mt19937_64 ref_copy = ref;
        for (int i = 0; i < 1000; ++i) {
          const std::uint64_t want = ref();
          ASSERT_EQ(engine(), want) << "original draw=" << i;
          ASSERT_EQ(copy(), want) << "copy draw=" << i;
          ASSERT_EQ(assigned(), ref_copy()) << "assigned draw=" << i;
        }
      }
    }
  }
}

// The site catalog runs every polar loop in its serial pass, keeps the
// accepted pairs, and finishes the lognormals later on other threads.
// Pair + lognormal_of must be lognormal_median bit for bit, and the
// stream must stay aligned with the scalar one after every draw.
TEST(Rng, PolarPairFinishesToLognormalDrawForDraw) {
  struct Shape {
    double median;
    double sigma;
  };
  constexpr Shape kShapes[] = {{30.0, 1.0}, {95.0, 0.45}, {3.0, 0.25}, {1e-3, 4.0}};
  constexpr std::size_t kDraws = 16;
  std::vector<PolarPair> pairs(kDraws);
  std::vector<double> values(kDraws);
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    Rng deferred(seed * 0x9e3779b97f4a7c15ULL + 7);
    Rng scalar(seed * 0x9e3779b97f4a7c15ULL + 7);
    for (std::size_t i = 0; i < kDraws; ++i) {
      const Shape& sh = kShapes[i % std::size(kShapes)];
      pairs[i] = deferred.polar_pair();
      values[i] = scalar.lognormal_median(sh.median, sh.sigma);
      // A draw between the pairs, as the catalog makes them.
      ASSERT_EQ(deferred.chance(0.3), scalar.chance(0.3)) << "seed " << seed;
    }
    ASSERT_EQ(deferred.uniform_u64(0, ~std::uint64_t{0}),
              scalar.uniform_u64(0, ~std::uint64_t{0}))
        << "seed " << seed;
    // Finished afterwards, in reverse order: the value needs the pair only.
    for (std::size_t i = kDraws; i-- > 0;) {
      const Shape& sh = kShapes[i % std::size(kShapes)];
      const double late = lognormal_of(pairs[i], std::log(sh.median), sh.sigma);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(late), std::bit_cast<std::uint64_t>(values[i]))
          << "seed " << seed << ", draw " << i;
    }
  }
  // The normal draw finishes the same pair.
  Rng deferred(99);
  Rng scalar(99);
  for (int i = 0; i < 1000; ++i) {
    const double late = polar_normal(deferred.polar_pair()) * 2.5 + 1.0;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(late),
              std::bit_cast<std::uint64_t>(scalar.normal(1.0, 2.5)));
  }
}

// --- In-repo distributions against libstdc++ -----------------------------
//
// Rng implements each distribution itself, after libstdc++ 12's algorithm
// (the goldens were made with it). Here every distribution is drawn from
// an Rng and from the std:: distribution over std::mt19937_64 with the
// same seed — a fresh distribution object per call, exactly what the
// earlier std::-backed Rng did — and doubles must agree bit for bit.

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// SplitMix64 step: picks each draw's distribution and parameters without
/// touching either stream under test.
std::uint64_t mix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The earlier std::-backed chance(): no draw at p <= 0 or p >= 1.
bool std_chance(double p, std::mt19937_64& ref) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::uniform_real_distribution<double>(0.0, 1.0)(ref) < p;
}

TEST(RngEquivalence, EveryDistributionMatchesStdBitForBit) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    std::mt19937_64 ref(seed * 0x9e3779b97f4a7c15ULL + 1);
    std::uint64_t pick = seed;
    for (int draw = 0; draw < 400; ++draw) {
      const std::uint64_t h = mix(pick);
      const std::uint64_t h2 = mix(pick);
      const auto op = static_cast<int>(h % 11);
      const auto frac = static_cast<double>(h2 >> 11) * 0x1p-53;  // [0, 1)
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " draw=" << draw
                                        << " op=" << op);
      switch (op) {
        case 0: {  // Spans of every width, up to the full range.
          const std::uint64_t lo = h2 >> (h % 64);
          const std::uint64_t span = mix(pick) >> ((h >> 8) % 64);
          const std::uint64_t hi = lo + std::min(span, kMax - lo);
          ASSERT_EQ(rng.uniform_u64(lo, hi),
                    std::uniform_int_distribution<std::uint64_t>(lo, hi)(ref));
          break;
        }
        case 1: {  // Full range (one raw word) or 2^63 + k (rejects ~half).
          const bool full = (h2 & 1) != 0;
          const std::uint64_t hi = full ? kMax : (std::uint64_t{1} << 63) + (h2 >> 60);
          ASSERT_EQ(rng.uniform_u64(0, hi),
                    std::uniform_int_distribution<std::uint64_t>(0, hi)(ref));
          break;
        }
        case 2: {
          const auto lo = static_cast<std::uint32_t>(h2 >> ((h >> 8) % 33));
          const auto span = static_cast<std::uint32_t>(mix(pick) >> (32 + (h >> 16) % 32));
          const std::uint32_t hi =
              (h & 0x100000) != 0 ? UINT32_MAX : lo + std::min(span, UINT32_MAX - lo);
          ASSERT_EQ(rng.uniform_u32(lo, hi),
                    std::uniform_int_distribution<std::uint32_t>(lo, hi)(ref));
          break;
        }
        case 3: {  // Negative bounds, and the full int range.
          const bool full = (h2 & 1) != 0;
          const int lo = full ? INT_MIN : static_cast<int>(h2 % 2001) - 1000;
          const int hi = full ? INT_MAX : lo + static_cast<int>((h2 >> 16) % 1500);
          ASSERT_EQ(rng.uniform_int(lo, hi), std::uniform_int_distribution<int>(lo, hi)(ref));
          break;
        }
        case 4: {
          const std::size_t size = 1 + (h2 >> (1 + h % 63));
          ASSERT_EQ(rng.index(size),
                    std::uniform_int_distribution<std::size_t>(0, size - 1)(ref));
          break;
        }
        case 5:
          ASSERT_TRUE(
              same_bits(rng.uniform01(), std::uniform_real_distribution<double>(0.0, 1.0)(ref)));
          break;
        case 6: {  // Negative lo.
          const double lo = -1000.0 * frac;
          const double hi = lo + 0.5 + 300.0 * static_cast<double>(h % 1000) / 1000.0;
          ASSERT_TRUE(
              same_bits(rng.uniform(lo, hi), std::uniform_real_distribution<double>(lo, hi)(ref)));
          break;
        }
        case 7: {
          static constexpr double kEdges[] = {-0.5, 0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0, 1.5};
          const double p = (h2 & 1) != 0 ? kEdges[(h2 >> 1) % 7] : frac;
          ASSERT_EQ(rng.chance(p), std_chance(p, ref)) << "p=" << p;
          break;
        }
        case 8: {
          const double mean = 100.0 * frac - 50.0;
          const double stddev = 0.01 + static_cast<double>(h % 1000) / 100.0;
          ASSERT_TRUE(same_bits(rng.normal(mean, stddev),
                                std::normal_distribution<double>(mean, stddev)(ref)));
          break;
        }
        case 9: {
          const double median = 0.001 + 1000.0 * frac;
          const double sigma = static_cast<double>(h % 1000) / 500.0;
          ASSERT_TRUE(same_bits(
              rng.lognormal_median(median, sigma),
              std::lognormal_distribution<double>(std::log(median), sigma)(ref)));
          break;
        }
        default: {  // Raw words stay aligned.
          ASSERT_EQ(rng.engine()(), ref());
          break;
        }
      }
    }
    ASSERT_EQ(rng.uniform_u64(0, kMax), ref()) << "seed=" << seed << " stream end";
  }
}

// Known answers at seed 2011, with no std:: involved: a toolchain whose
// arithmetic or libm differs from the one the goldens were made with
// fails here first. Each distribution draws from its own fresh stream.
TEST(RngKnownAnswers, FirstDrawsAtSeed2011) {
  constexpr std::uint64_t kSeed = 2011;
  {
    Mt64Engine e(kSeed);
    for (const std::uint64_t want : {0x327e24db8c540960ULL, 0xb61d500c47c4a6cbULL,
                                     0xdefdc9ebdf9135f8ULL, 0xcba1cdbff2cd9aa8ULL}) {
      EXPECT_EQ(e(), want);
    }
  }
  {
    Rng r(kSeed);
    for (const std::uint64_t want :
         {197237304314ULL, 711384776117ULL, 871060009087ULL, 795437678685ULL}) {
      EXPECT_EQ(r.uniform_u64(10, 1'000'000'000'000ULL), want);
    }
  }
  {
    Rng r(kSeed);
    for (const std::uint32_t want : {19u, 71u, 87u, 79u}) EXPECT_EQ(r.uniform_u32(0, 99), want);
  }
  {
    Rng r(kSeed);
    for (const int want : {-31, 21, 37, 30}) EXPECT_EQ(r.uniform_int(-50, 50), want);
  }
  const auto expect_doubles = [](const char* what, auto draw,
                                 std::initializer_list<double> want) {
    for (const double w : want) {
      const double got = draw();
      EXPECT_TRUE(same_bits(got, w)) << what << ": got " << std::hexfloat << got
                                     << ", want " << w;
    }
  };
  {
    Rng r(kSeed);
    expect_doubles("uniform01", [&] { return r.uniform01(); },
                   {0x1.93f126dc62a05p-3, 0x1.6c3aa0188f895p-1, 0x1.bdfb93d7bf227p-1,
                    0x1.97439b7fe59b3p-1});
  }
  {
    Rng r(kSeed);
    expect_doubles("uniform", [&] { return r.uniform(-3.0, 5.0); },
                   {-0x1.6c0ed9239d5fbp+0, 0x1.587540311f12ap+1, 0x1.fbf727af7e44ep+1,
                    0x1.ae8736ffcb366p+1});
  }
  {
    Rng r(kSeed);
    for (const bool want : {true, false, false, false, true, false, false, true}) {
      EXPECT_EQ(r.chance(0.3), want);
    }
  }
  {
    Rng r(kSeed);
    expect_doubles("normal", [&] { return r.normal(10.0, 2.0); },
                   {0x1.6857c80f07966p+3, 0x1.524fbb2efd9bap+3, 0x1.4e2ed2947e79ep+3,
                    0x1.13eafbdb9580dp+3});
  }
  {
    Rng r(kSeed);
    expect_doubles("lognormal_median", [&] { return r.lognormal_median(5.0, 0.5); },
                   {0x1.b68fb95291eaap+2, 0x1.71370be47d3ffp+2, 0x1.657f0b0ede7dp+2,
                    0x1.c58977a12048dp+1});
  }
}

/// A "generator" that returns one fixed word: feeds std::generate_canonical
/// the exact input under test.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

void expect_conversions_match(std::uint64_t u) {
  ASSERT_TRUE(same_bits(word_to_double(u), static_cast<double>(u))) << "u=" << u;
  FixedWord g{u};
  ASSERT_TRUE(same_bits(word_to_unit(u), std::generate_canonical<double, 53>(g)))
      << "u=" << u;
}

TEST(RngConversion, WordToDoubleAndUnitMatchTheCompilerAndStd) {
  constexpr std::uint64_t kOne = 1;
  // Near 2^64: words from 2^64 - 2^10 (a tie, rounding to even) up round
  // to 2^64, a unit value of 1.0 that the clamp maps below 1.0.
  for (std::uint64_t k = 0; k < 4096; ++k) expect_conversions_match(~std::uint64_t{0} - k);
  EXPECT_EQ(word_to_double(~std::uint64_t{0} - 1023), 0x1p64);
  EXPECT_EQ(word_to_double(~std::uint64_t{0} - 1024), 0x1p64 - 0x1p11);
  EXPECT_EQ(word_to_unit(~std::uint64_t{0}), std::nextafter(1.0, 0.0));
  // Around 2^53 (the last exactly representable step) and 2^63 (the sign
  // bit of the plain conversion).
  for (const std::uint64_t centre : {kOne << 53, kOne << 63}) {
    for (std::uint64_t k = 0; k < 4096; ++k) {
      expect_conversions_match(centre + k);
      expect_conversions_match(centre - k);
    }
  }
  // Exact half-way ties at every magnitude that rounds, against even and
  // odd neighbours, and one unit either side of each tie.
  for (int bit = 53; bit < 64; ++bit) {
    const std::uint64_t ulp = kOne << (bit - 52);
    for (std::uint64_t m = 0; m < 64; ++m) {
      const std::uint64_t tie = (kOne << bit) + m * ulp + ulp / 2;
      expect_conversions_match(tie);
      expect_conversions_match(tie - 1);
      expect_conversions_match(tie + 1);
    }
  }
  std::uint64_t s = 99;
  for (int i = 0; i < (1 << 20); ++i) {
    const std::uint64_t u = mix(s);
    expect_conversions_match(u);
    expect_conversions_match(u >> (u % 64));
  }
}

#if V6MON_CONTRACT_LEVEL >= 1
TEST(RngContracts, ViolatedPreconditionsThrow) {
  Rng r(1);
  EXPECT_THROW((void)r.uniform_u64(5, 4), ContractError);
  EXPECT_THROW((void)r.uniform_int(0, -1), ContractError);
  EXPECT_THROW((void)r.index(0), ContractError);
  Mt64Engine drawn(1);
  (void)drawn();
  Mt64Engine* one[] = {&drawn};
  EXPECT_THROW(Mt64Engine::prime(one), ContractError);
  Mt64Engine a(1), b(2), c(3), d(4), e(5);
  Mt64Engine* five[] = {&a, &b, &c, &d, &e};
  EXPECT_THROW(Mt64Engine::prime(five), ContractError);
}
#endif

TEST(HashCombine, Distinctness) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 16; ++s) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      seen.insert(hash_combine(s, "a", i));
      seen.insert(hash_combine(s, "b", i));
    }
  }
  EXPECT_EQ(seen.size(), 16u * 16u * 2u);
}

}  // namespace
}  // namespace v6mon::util
