// The monitor_single_site example run as a process: the default run's
// site blocks, and the exit status on bad arguments.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace v6mon {
namespace {

struct Outcome {
  int exit_code = -1;  ///< -1 when the process did not exit normally.
  std::string out;     ///< stdout only; stderr is discarded.
};

Outcome run(const std::string& args) {
  const std::string cmd = "'" V6MON_MONITOR_SINGLE_SITE "' " + args + " 2>/dev/null";
  Outcome r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) r.out.append(buf, n);
  const int status = ::pclose(pipe);
  if (status != -1 && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(MonitorSingleSite, DefaultRunPrintsSixSiteBlocks) {
  const Outcome r = run("");
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_EQ(count(r.out, "--- www.s"), 6u) << r.out;
  EXPECT_EQ(count(r.out, "\n  A    -> "), 6u) << r.out;
  EXPECT_EQ(count(r.out, "\n  AAAA -> "), 6u) << r.out;
  EXPECT_EQ(count(r.out, "\n  status: "), 6u) << r.out;
  // Each block holds its own A, AAAA and status lines, in that order.
  for (std::size_t at = r.out.find("--- www.s"); at != std::string::npos;
       at = r.out.find("--- www.s", at + 1)) {
    const std::size_t a = r.out.find("\n  A    -> ", at);
    const std::size_t aaaa = r.out.find("\n  AAAA -> ", at);
    const std::size_t status = r.out.find("\n  status: ", at);
    EXPECT_LT(a, aaaa);
    EXPECT_LT(aaaa, status);
    EXPECT_LT(status, r.out.find("--- www.s", at + 1));
  }
}

TEST(MonitorSingleSite, BadArgumentsExitTwo) {
  for (const char* args : {"abc", "7 -1"}) {
    const Outcome r = run(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_EQ(r.out, "") << args;
  }
}

}  // namespace
}  // namespace v6mon
