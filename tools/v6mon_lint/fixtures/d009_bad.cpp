// D009 fixture: randomness drawn through the standard library's own
// algorithms. The standard fixes std::mt19937_64's output but leaves every
// distribution to the implementation, so these draws would differ under
// another standard library; util::Rng owns both.

#include <cstdint>
#include <random>

double noisy_rate(std::uint64_t seed, double base) {
  std::mt19937_64 engine(seed);  // EXPECT-LINT: D009
  std::lognormal_distribution<double> noise(0.0, 0.5);  // EXPECT-LINT: D009
  return base * noise(engine);
}

int pick_port(std::mt19937& engine) {  // EXPECT-LINT: D009
  return std::uniform_int_distribution<int>(1024, 65535)(engine);  // EXPECT-LINT: D009
}

double unit(std::mt19937_64& engine) {  // EXPECT-LINT: D009
  return std :: generate_canonical<double, 53>(engine);  // EXPECT-LINT: D009
}
