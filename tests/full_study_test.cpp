// The full_study example run end to end as a process: every paper
// artifact printed once with the paper's values under it, and the exit
// status on bad arguments and on an unwritable table CSV.

#include <gtest/gtest.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/paper_reference.h"

namespace v6mon {
namespace {

namespace fs = std::filesystem;

struct Outcome {
  int exit_code = -1;  ///< -1 when the process did not exit normally.
  std::string out;
  std::string err;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Each test runs full_study in a fresh directory of its own, since the
/// binary writes ./full_study_out/.
class FullStudy : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("v6mon_full_study_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  Outcome run(const std::string& args) const {
    const std::string cmd = "cd '" + dir_.string() + "' && '" V6MON_FULL_STUDY "' " +
                            args + " >out.txt 2>err.txt";
    const int status = std::system(cmd.c_str());
    Outcome r;
    if (status != -1 && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
    r.out = slurp(dir_ / "out.txt");
    r.err = slurp(dir_ / "err.txt");
    return r;
  }

  fs::path dir_;
};

TEST_F(FullStudy, PaperRunPrintsEveryArtifactWithItsReference) {
  const Outcome r = run("2011 0.1");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  for (std::size_t i = 0; i < analysis::kNumArtifacts; ++i) {
    const analysis::PaperReference& ref =
        analysis::paper_reference(static_cast<analysis::Artifact>(i));
    const std::size_t at = r.out.find(ref.title);
    ASSERT_NE(at, std::string::npos) << ref.title;
    EXPECT_EQ(r.out.find(ref.title, at + 1), std::string::npos)
        << ref.title << " printed more than once";
    // The paper's block sits under this artifact's table, before the
    // next table's header.
    const std::string section = r.out.substr(at, r.out.find("\n=====", at) - at);
    EXPECT_NE(section.find(ref.paper), std::string::npos) << ref.title;
    EXPECT_TRUE(fs::is_regular_file(dir_ / "full_study_out" / ref.csv)) << ref.csv;
  }
}

TEST_F(FullStudy, MetricsExportLeadsWithManifest) {
  const Outcome r = run("--metrics 2011 0.1");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const std::string json = slurp(dir_ / "full_study_out" / "metrics.json");
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  const std::string head = "{\n  \"manifest\": {\n    \"seed\": 2011,\n    \"scale\": 0.1,\n"
                           "    \"config\": null,\n    \"threads\": ";
  ASSERT_EQ(json.rfind(head, 0), 0u) << json.substr(0, 300);
  const std::string manifest = json.substr(0, json.find("\n  },"));
  EXPECT_NE(manifest.find("\n    \"build_type\": \""), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("\n    \"nproc\": " + std::to_string(CPU_COUNT(&set)) + ",\n"),
            std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\n    \"git_rev\": \""), std::string::npos) << manifest;
}

TEST_F(FullStudy, BadPositionalArgumentsExitTwo) {
  // Scale 0 is outside the paper world's domain; "abc" is not a seed; the
  // mutex sink was removed.
  for (const char* args : {"2011 0", "abc", "2011 0.05x", "2011 0.1 mutex"}) {
    const Outcome r = run(args);
    EXPECT_EQ(r.exit_code, 2) << "full_study " << args << ": " << r.err;
    EXPECT_FALSE(r.err.empty()) << "full_study " << args;
  }
}

TEST_F(FullStudy, FailedTableWriteExitsOne) {
  const fs::path blocked = dir_ / "full_study_out" / "table4.csv";
  fs::create_directories(blocked);
  const Outcome r = run("2011 0.1");
  EXPECT_EQ(r.exit_code, 1) << r.err;
  EXPECT_NE(r.err.find("full_study_out/table4.csv"), std::string::npos) << r.err;
}

}  // namespace
}  // namespace v6mon
