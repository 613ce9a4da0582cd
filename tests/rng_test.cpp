#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <set>

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

TEST(Rng, ParetoBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
  }
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

TEST(Rng, ExponentialMean) {
  Rng r(12);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
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
  constexpr std::uint64_t kSeed = 0x0123456789abcdef;
  for (const int n : {0, 1, 155, 156, 157, 311, 312, 313, 1000}) {
    std::mt19937_64 ref(kSeed);
    Mt64Engine engine(kSeed);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(engine(), ref()) << "n=" << n << " draw=" << i;
    }
    Mt64Engine copy = engine;
    Mt64Engine assigned(1);
    (void)assigned();
    assigned = engine;
    std::mt19937_64 ref_copy = ref;
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t want = ref();
      ASSERT_EQ(engine(), want) << "n=" << n << " original draw=" << i;
      ASSERT_EQ(copy(), want) << "n=" << n << " copy draw=" << i;
      ASSERT_EQ(assigned(), ref_copy()) << "n=" << n << " assigned draw=" << i;
    }
  }
}

TEST(Rng, FillLognormalMatchesScalarDrawForDraw) {
  // The block fill consumes engine draws in exactly the scalar order:
  // every element is bit-identical and the streams stay aligned after.
  Rng block(2024);
  Rng scalar(2024);
  double out[37];
  block.fill_lognormal_median(3.0, 0.25, out);
  for (double x : out) {
    ASSERT_EQ(x, scalar.lognormal_median(3.0, 0.25));
  }
  EXPECT_EQ(block.uniform_u64(0, ~std::uint64_t{0}),
            scalar.uniform_u64(0, ~std::uint64_t{0}));
}

TEST(Rng, FillChanceMatchesScalarDrawForDraw) {
  for (const double p : {0.3, 0.7}) {
    Rng block(31);
    Rng scalar(31);
    std::uint8_t out[41];
    block.fill_chance(p, out);
    for (std::uint8_t b : out) {
      ASSERT_EQ(b != 0, scalar.chance(p));
    }
    EXPECT_EQ(block.uniform_u64(0, ~std::uint64_t{0}),
              scalar.uniform_u64(0, ~std::uint64_t{0}));
  }
}

TEST(Rng, FillChanceDegenerateProbabilitiesConsumeNoDraws) {
  for (const double p : {-1.0, 0.0, 1.0, 2.0}) {
    Rng block(55);
    Rng untouched(55);
    std::uint8_t out[9];
    block.fill_chance(p, out);
    const std::uint8_t expected = p >= 1.0 ? 1 : 0;
    for (std::uint8_t b : out) EXPECT_EQ(b, expected);
    EXPECT_EQ(block.uniform_u64(0, ~std::uint64_t{0}),
              untouched.uniform_u64(0, ~std::uint64_t{0}));
  }
}

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
