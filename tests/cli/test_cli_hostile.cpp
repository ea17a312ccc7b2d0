// Hostile-input tests for the CLI front doors, run as real
// subprocesses against the installed binaries (paths injected by CMake
// via BEVR_RUN_BINARY / BEVR_BENCH_BINARY): unknown flags, missing
// values, out-of-range integers and junk positionals must print usage
// and exit 2 — never crash, never start a run.
//
// popen() gives us exit status and output in one call; every case
// asserts on both.
#include <array>
#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#ifndef BEVR_RUN_BINARY
#error "BEVR_RUN_BINARY must be defined to the bevr_run path"
#endif
#ifndef BEVR_BENCH_BINARY
#error "BEVR_BENCH_BINARY must be defined to the bevr_bench path"
#endif
#ifndef BEVR_DAR_STUDY_BINARY
#error "BEVR_DAR_STUDY_BINARY must be defined to the dar_network_study path"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr interleaved
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  // popen runs through the shell: normal termination reports the exit
  // code; a crash (signal) shows up as 128+sig from the shell or as
  // WIFSIGNALED — either way it won't equal 2, which is the assertion.
  result.exit_code = (status >= 0 && WIFEXITED(status))
                         ? WEXITSTATUS(status)
                         : -1;
  return result;
}

void expect_usage_exit(const std::string& binary, const std::string& args,
                       const char* needle) {
  const CommandResult result = run_command(binary + " " + args);
  SCOPED_TRACE(binary + " " + args + "\n--- output ---\n" + result.output);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
  if (needle != nullptr) {
    EXPECT_NE(result.output.find(needle), std::string::npos);
  }
}

TEST(BevrRunHostile, UnknownFlags) {
  expect_usage_exit(BEVR_RUN_BINARY, "--frobnicate", "unknown option");
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --x", "unknown option");
  expect_usage_exit(BEVR_RUN_BINARY, "-q", "unknown option");
  // There is one evaluation path (memo + kernels), so no flag selects
  // another.
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --no-kernels",
                    "unknown option");
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --no-cache",
                    "unknown option");
}

TEST(BevrRunHostile, MissingValues) {
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --threads", nullptr);
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --format", nullptr);
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --output", nullptr);
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --seed", nullptr);
}

TEST(BevrRunHostile, OutOfRangeAndMalformedInts) {
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --threads -3",
                    "--threads must be an integer in [0, 256]");
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --threads 257",
                    "--threads must be an integer in [0, 256]");
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --threads 1e3",
                    "--threads");
  expect_usage_exit(BEVR_RUN_BINARY,
                    "fig2_rigid --threads 99999999999999999999", "--threads");
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --seed -1", "--seed");
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --snapshot-every 0",
                    "--snapshot-every");
}

TEST(BevrRunHostile, BadCombinationsAndTargets) {
  expect_usage_exit(BEVR_RUN_BINARY, "", "no scenario given");
  expect_usage_exit(BEVR_RUN_BINARY, "no_such_scenario_xyz", "no scenario");
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid fig3_rigid",
                    "more than one scenario");
  expect_usage_exit(BEVR_RUN_BINARY, "--list=fig2",
                    "--list does not take a value");
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --format=xml",
                    "--format must be csv or jsonl");
  expect_usage_exit(BEVR_RUN_BINARY, "fig2_rigid --report=yaml",
                    "--report must be text, json or prom");
}

TEST(BevrRunHostile, ListStaysHealthy) {
  const CommandResult result =
      run_command(std::string(BEVR_RUN_BINARY) + " --list");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("scenario(s)"), std::string::npos);
}

TEST(BevrBenchHostile, UnknownFlags) {
  expect_usage_exit(BEVR_BENCH_BINARY, "--frobnicate", "unknown option");
  expect_usage_exit(BEVR_BENCH_BINARY, "--smoke --x", "unknown option");
}

TEST(BevrBenchHostile, MissingValues) {
  expect_usage_exit(BEVR_BENCH_BINARY, "--filter", nullptr);
  expect_usage_exit(BEVR_BENCH_BINARY, "--json-out", nullptr);
  expect_usage_exit(BEVR_BENCH_BINARY, "--baseline", nullptr);
  expect_usage_exit(BEVR_BENCH_BINARY, "--reps", nullptr);
}

TEST(BevrBenchHostile, MalformedValues) {
  expect_usage_exit(BEVR_BENCH_BINARY, "--reps -2", nullptr);
  expect_usage_exit(BEVR_BENCH_BINARY, "--reps abc", nullptr);
  expect_usage_exit(BEVR_BENCH_BINARY, "--smoke=yes",
                    "--smoke does not take a value");
}

TEST(BevrBenchHostile, HostileBaselineArtifact) {
  // A corrupt baseline must be a clean failure, not a crash: feed the
  // compare path /dev/null (empty ⇒ json parse error).
  const CommandResult result = run_command(
      std::string(BEVR_BENCH_BINARY) +
      " service_closed_loop --smoke --baseline /dev/null"
      " --json-out /tmp/bevr_cli_hostile_artifact.json");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("json parse error"), std::string::npos)
      << result.output;
}

TEST(DarStudyHostile, UnknownFlagsAndMissingValues) {
  expect_usage_exit(BEVR_DAR_STUDY_BINARY, "--frobnicate",
                    "unknown argument");
  expect_usage_exit(BEVR_DAR_STUDY_BINARY, "extra_positional",
                    "unknown argument");
  expect_usage_exit(BEVR_DAR_STUDY_BINARY, "--topology",
                    "--topology needs a file path");
}

TEST(DarStudyHostile, MissingTopologyFile) {
  expect_usage_exit(BEVR_DAR_STUDY_BINARY,
                    "--topology /nonexistent/bevr/topo.txt", "error:");
}

TEST(DarStudyHostile, MalformedTopologyFilesExitTwoNamingTheLine) {
  const std::string dir = ::testing::TempDir();
  const auto write_and_expect = [&](const char* name, const char* contents,
                                    const char* needle) {
    const std::string path = dir + name;
    FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    std::fputs(contents, out);
    std::fclose(out);
    expect_usage_exit(BEVR_DAR_STUDY_BINARY, "--topology " + path, needle);
    std::remove(path.c_str());
  };
  write_and_expect("bevr_cli_topo_truncated.txt", "0 1 10\n2 3\n", "line 2");
  write_and_expect("bevr_cli_topo_dup.txt", "0 1 10\n1 0 4\n", "line 2");
  write_and_expect("bevr_cli_topo_selfloop.txt", "2 2 10\n", "line 1");
  write_and_expect("bevr_cli_topo_zero_cap.txt", "0 1 0\n", "line 1");
  write_and_expect("bevr_cli_topo_garbage.txt", "\x01\xff garbage\n",
                   "line 1");
  write_and_expect("bevr_cli_topo_empty.txt", "# only comments\n",
                   "no links");
}

TEST(DarStudyHostile, WellFormedTopologyFileRuns) {
  const std::string path = ::testing::TempDir() + "bevr_cli_topo_ok.txt";
  FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  // A 4-node ring: multi-hop routes, no alternates for adjacent pairs.
  std::fputs("0 1 10\n1 2 10\n2 3 10\n0 3 10\n", out);
  std::fclose(out);
  const CommandResult result = run_command(
      std::string(BEVR_DAR_STUDY_BINARY) + " --topology " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("4 nodes, 4 links"), std::string::npos)
      << result.output;
}

TEST(BevrBenchHostile, ListStaysHealthy) {
  const CommandResult result =
      run_command(std::string(BEVR_BENCH_BINARY) + " --list");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("service_closed_loop"), std::string::npos);
}

}  // namespace
