#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "scenario/paper.h"
#include "util/error.h"
#include "util/strings.h"

namespace v6mon::bench {

namespace {

template <typename T>
T number_from_env(const char* name, T fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::optional<T> out = util::parse_number<T>(v);
  if (!out) {
    std::fprintf(stderr, "bad %s '%s' (want a number)\n", name, v);
    std::exit(2);
  }
  return *out;
}

}  // namespace

std::uint64_t seed_from_env(std::uint64_t fallback) {
  return number_from_env("V6MON_BENCH_SEED", fallback);
}

double scale_from_env(double fallback) {
  const double scale = number_from_env("V6MON_BENCH_SCALE", fallback);
  try {
    scenario::validate_paper_scale(scale);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "bad V6MON_BENCH_SCALE: %s\n", e.what());
    std::exit(2);
  }
  return scale;
}

void print_result(const std::string& title, const util::TextTable& table,
                  const std::string& paper_reference, const std::string& csv_name) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
  std::printf("%s", table.render().c_str());
  if (!paper_reference.empty()) {
    std::printf("\nPaper reference (CoNEXT'11 published values):\n%s\n",
                paper_reference.c_str());
  }
  if (!csv_name.empty()) {
    const std::string path = "bench/out/" + csv_name;
    if (util::write_file(path, table.to_csv())) {
      std::printf("[csv written to %s]\n", path.c_str());
    }
  }
  std::printf("\n");
}

int run_bench_main(int argc, char** argv, void (*emit)()) {
  emit();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace v6mon::bench
