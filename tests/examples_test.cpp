// The whatif and quickstart examples run as processes: whatif's two
// tables, and the exit status on bad arguments.

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

Outcome run(const std::string& binary, const std::string& args) {
  const std::string cmd = "'" + binary + "' " + args + " 2>/dev/null";
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

TEST(Whatif, SmallRunPrintsBothTables) {
  const Outcome r = run(V6MON_WHATIF, "2011 0.05");
  ASSERT_EQ(r.exit_code, 0);
  const std::size_t ladder = r.out.find("===== Peering-parity ladder =====");
  const std::size_t tunnels =
      r.out.find("===== Tunnel sweep (Table 7's low-hop artifact) =====");
  ASSERT_NE(ladder, std::string::npos) << r.out;
  ASSERT_NE(tunnels, std::string::npos) << r.out;
  EXPECT_LT(ladder, tunnels);
  // Six ladder rows, then four tunnel rows.
  for (const char* row :
       {"| sparse links ", "| 2011 status quo ", "| denser links ",
        "| link parity only ", "| + dual-stack core ", "| + VP uplink parity ",
        "| none (islands unreachable) ", "| free tunnels ", "| paper-era tunnels ",
        "| awful tunnels "}) {
    EXPECT_NE(r.out.find(row), std::string::npos) << row;
  }
}

TEST(Whatif, BadArgumentsExitTwo) {
  // "abc" is not a seed; scale 0 is outside the paper world's domain.
  for (const char* args : {"abc", "7 0"}) {
    const Outcome r = run(V6MON_WHATIF, args);
    EXPECT_EQ(r.exit_code, 2) << "whatif " << args;
    EXPECT_EQ(r.out, "") << "whatif " << args;
  }
}

TEST(Quickstart, BadScaleExitsTwo) {
  const Outcome r = run(V6MON_QUICKSTART, "7 0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.out, "");
}

}  // namespace
}  // namespace v6mon
