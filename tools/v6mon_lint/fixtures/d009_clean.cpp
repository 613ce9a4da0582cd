// D009 fixture (clean): draws through util::Rng, lookalike names that are
// not the standard library's, and mentions of std::normal_distribution or
// std::mt19937_64 in comments and strings only.

#include <cstdint>

namespace util {
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  double lognormal_median(double median, double sigma);
};
}  // namespace util

namespace stats {
struct my_distribution {
  double operator()(double x) const { return x; }
};
}  // namespace stats

double noisy_rate(std::uint64_t seed, double base) {
  util::Rng rng(seed);
  return base * rng.lognormal_median(1.0, 0.5);
}

double shaped(double x) {
  stats::my_distribution my_distribution;
  return my_distribution(x);
}

const char* kNote = "drawn like std::uniform_int_distribution, but in-repo";
