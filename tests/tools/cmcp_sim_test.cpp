// cmcp_sim's flag contract: a core count the machine cannot hold, a memory
// fraction that is not a positive size the host can back, a CMCP ratio
// outside [0, 1] or a scan period the engine cannot tick is a usage error
// (exit 2, "--cores: ..." / "--fraction: ..."), not an assertion abort deep
// in setup, a hang or a silent fall-back to the paper's default. So is a
// --faults entry out of its range ("--faults: 'pcie=2': ..."). A malformed
// --replay-trace file is one too, reported as "<file>:<line>: ...".
// --dump-trace writes the workload's trace and exits 0 without simulating.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
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

TEST(CmcpSimCliDeath, OutOfRangePAndScanPeriodExitTwo) {
  // A zero scan period never advances the scanner's tick, a negative one has
  // no Cycles value and 1e30 ms lies past the engine's 2^53-cycle bound; a
  // negative p must not fall back to the paper's p, nor p > 1 abort.
  const struct {
    const char* args;
    const char* message;
  } kCases[] = {
      {"--scan-ms 0", "--scan-ms: '0' is out of range"},
      {"--scan-ms -1", "--scan-ms: '-1' is out of range"},
      {"--scan-ms 1e30", "--scan-ms: '1e30' is out of range"},
      {"--p -0.5", "--p: '-0.5' is out of range \\[0\\.0+, 1\\.0+\\]"},
      {"--p 5", "--p: '5' is out of range \\[0\\.0+, 1\\.0+\\]"},
  };
  for (const auto& c : kCases)
    EXPECT_EXIT(exit_like_cmcp_sim(c.args), ::testing::ExitedWithCode(2),
                c.message)
        << c.args;
}

TEST(CmcpSimCliDeath, OutOfRangeFaultRateNamesTheKeyAndExitsTwo) {
  // Used to print only "malformed --faults spec" and the usage text.
  EXPECT_EXIT(exit_like_cmcp_sim("--faults pcie=2 --cores 8"),
              ::testing::ExitedWithCode(2),
              "--faults: 'pcie=2': pcie must be in \\[0, 1\\]");
}

TEST(CmcpSimCliDeath, MalformedReplayTraceExitsTwoWithALocatedDiagnostic) {
  // Each body follows "cmcp-trace v1\ncores 1\npages 10\ncore 0\n" unless it
  // replaces the cores line, so line 5 holds the first op.
  const struct {
    const char* name;
    const char* body;
    const char* message;
  } kCases[] = {
      // Used to abort with "unknown trace tag" and no location.
      {"tag", "core 0\nz 1\n", ":5: unknown trace tag 'z'"},
      // Used to die in an uncaught std::bad_alloc.
      {"cores", nullptr, ":2: cores must be in \\[1, 1087\\]"},
      // Used to abort deep in the run, in ComputationArea::contains.
      {"range", "core 0\na 5 20 1 1 r 1\n",
       ":5: access range lies outside the declared pages"},
      // Used to run silently as repeat 1 (truncated to 16 bits).
      {"repeat", "core 0\na 0 1 1 65537 r 1\n",
       ":5: repeat must be in \\[1, 65535\\]"},
      // Used to die in an uncaught std::bad_alloc while the per-unit tables
      // were sized (a later pages line redeclares the footprint).
      {"pages", "pages 999999999999999\ncore 0\na 0 1 1 1 r 0\n",
       ":4: pages must be in \\[1, 165191049\\] on 1 core"},
  };
  for (const auto& c : kCases) {
    const std::string path =
        ::testing::TempDir() + "cmcp_sim_bad_" + c.name + ".trace";
    {
      std::ofstream out(path);
      if (c.body != nullptr)
        out << "cmcp-trace v1\ncores 1\npages 10\n" << c.body;
      else
        out << "cmcp-trace v1\ncores 999999999999\npages 10\n";
    }
    EXPECT_EXIT(exit_like_cmcp_sim("--replay-trace " + path),
                ::testing::ExitedWithCode(2), path + c.message)
        << c.name;
  }
}

TEST(CmcpSimCli, DumpTraceWritesTheTraceAndExitsWithoutSimulating) {
  // Dumping a trace is the workload byte-identity probe; it must not pay
  // for a whole simulation (no "runtime" line, no result exports).
  const std::string path = ::testing::TempDir() + "cmcp_sim_dump.trace";
  const std::string json = ::testing::TempDir() + "cmcp_sim_dump.json";
  std::remove(path.c_str());
  std::remove(json.c_str());
  const std::string cmd = std::string(CMCP_SIM_BIN) +
                          " --workload bt --cores 4 --dump-trace " + path +
                          " --json " + json;
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(out.find("written to " + path), std::string::npos) << out;
  EXPECT_EQ(out.find("runtime"), std::string::npos) << out;
  std::ifstream trace(path);
  std::string header;
  ASSERT_TRUE(std::getline(trace, header));
  EXPECT_EQ(header, "cmcp-trace v1");
  EXPECT_FALSE(std::ifstream(json).good());
}

}  // namespace
