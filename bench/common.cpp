#include "common.h"

#include <cstdio>

namespace v6mon::bench {

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
