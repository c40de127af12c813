// cmcp_sim's flag contract: a core count the machine cannot hold, or a
// memory fraction that is not a positive size the host can back, is a usage
// error (exit 2, "--cores: ..." / "--fraction: ..."), not an assertion
// abort deep in setup or a silent fall-back to the paper's default.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

namespace {

/// Run cmcp_sim with `args` and exit with its exit code, so EXPECT_EXIT
/// sees both the code and the tool's stderr.
[[noreturn]] void exit_like_cmcp_sim(const std::string& args) {
  const std::string cmd = std::string(CMCP_SIM_BIN) + " " + args;
  const int status = std::system(cmd.c_str());
  std::exit(WIFEXITED(status) ? WEXITSTATUS(status) : 128);
}

TEST(CmcpSimCliDeath, ZeroCoresExitsTwo) {
  EXPECT_EXIT(exit_like_cmcp_sim("--cores 0"), ::testing::ExitedWithCode(2),
              "--cores: '0' is out of range \\[1, 1087\\]");
}

TEST(CmcpSimCliDeath, CoresPastTheMaskWidthExitTwo) {
  // 1088 app cores leave no mask bit for the scanner pseudo-core.
  EXPECT_EXIT(exit_like_cmcp_sim("--cores 1088"), ::testing::ExitedWithCode(2),
              "--cores: '1088' is out of range \\[1, 1087\\]");
}

TEST(CmcpSimCliDeath, ZeroFractionExitsTwoInsteadOfRunningAtTheDefault) {
  EXPECT_EXIT(exit_like_cmcp_sim("--fraction 0"), ::testing::ExitedWithCode(2),
              "--fraction: '0' is out of range \\(0, 16\\]");
}

TEST(CmcpSimCliDeath, NegativeFractionExitsTwoInsteadOfRunningAtTheDefault) {
  EXPECT_EXIT(exit_like_cmcp_sim("--fraction -1"), ::testing::ExitedWithCode(2),
              "--fraction: '-1' is out of range \\(0, 16\\]");
}

TEST(CmcpSimCliDeath, HugeFractionExitsTwoInsteadOfBadAlloc) {
  EXPECT_EXIT(exit_like_cmcp_sim("--fraction 1e9"), ::testing::ExitedWithCode(2),
              "--fraction: '1e9' is out of range \\(0, 16\\]");
}

}  // namespace
