// The regression gate: identical artifacts pass, a synthetic 50%
// median regression trips it, one-sided suites never gate, and the
// shared CLI driver turns a regression into exit code 3.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bevr/bench/bench_main.h"
#include "bevr/bench/compare.h"

namespace bevr::bench {
namespace {

/// A minimal valid bevr.bench.v1 artifact: suites as (name, median_ns),
/// from a clean tree at 7 repetitions unless told otherwise.
std::string make_artifact(
    const std::vector<std::pair<std::string, double>>& suites,
    const std::string& git = "abc1234", int repetitions = 7) {
  std::string out = R"({"schema": "bevr.bench.v1", "suite": "t",)";
  out += R"( "provenance": {"git": ")" + git + R"(", "repetitions": )" +
         std::to_string(repetitions) + R"(}, "benchmarks": [)";
  for (std::size_t i = 0; i < suites.size(); ++i) {
    if (i > 0) out += ", ";
    out += R"({"name": ")" + suites[i].first + R"(", "stats": {"median_ns": )" +
           std::to_string(suites[i].second) + "}}";
  }
  out += R"(], "metrics": {}})";
  return out;
}

std::string write_temp(const std::string& filename, const std::string& text) {
  const std::string path = testing::TempDir() + filename;
  std::ofstream file(path);
  file << text;
  return path;
}

TEST(CompareArtifacts, IdenticalArtifactsHaveNoRegressions) {
  const std::string artifact =
      make_artifact({{"alpha", 100.0}, {"beta", 200.0}});
  const CompareReport report = compare_artifacts(artifact, artifact, 0.25);
  EXPECT_EQ(report.regressions(), 0u);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(report.entries[0].ratio, 1.0);
  EXPECT_NE(report.render().find("no regressions"), std::string::npos);
}

TEST(CompareArtifacts, FiftyPercentRegressionTripsTheGate) {
  const std::string baseline = make_artifact({{"alpha", 100.0}});
  const std::string current = make_artifact({{"alpha", 150.0}});
  const CompareReport report = compare_artifacts(baseline, current, 0.25);
  EXPECT_EQ(report.regressions(), 1u);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_TRUE(report.entries[0].regressed);
  EXPECT_DOUBLE_EQ(report.entries[0].ratio, 1.5);
  EXPECT_NE(report.render().find("REGRESSED"), std::string::npos);
}

TEST(CompareArtifacts, GrowthWithinThresholdPasses) {
  const std::string baseline = make_artifact({{"alpha", 100.0}});
  const std::string current = make_artifact({{"alpha", 120.0}});
  EXPECT_EQ(compare_artifacts(baseline, current, 0.25).regressions(), 0u);
}

TEST(CompareArtifacts, OneSidedSuitesNeverGate) {
  const std::string baseline = make_artifact({{"retired", 100.0}});
  const std::string current = make_artifact({{"brand_new", 9e9}});
  const CompareReport report = compare_artifacts(baseline, current, 0.25);
  EXPECT_EQ(report.regressions(), 0u);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_TRUE(report.entries[0].only_in_current);   // brand_new (sorted)
  EXPECT_TRUE(report.entries[1].only_in_baseline);  // retired
}

TEST(CompareArtifacts, ZeroBaselineMedianNeverDividesByZero) {
  const std::string baseline = make_artifact({{"alpha", 0.0}});
  const std::string current = make_artifact({{"alpha", 500.0}});
  const CompareReport report = compare_artifacts(baseline, current, 0.25);
  EXPECT_DOUBLE_EQ(report.entries[0].ratio, 1.0);
  EXPECT_EQ(report.regressions(), 0u);
}

TEST(CompareArtifacts, WrongSchemaOrMissingKeysThrow) {
  const std::string good = make_artifact({{"alpha", 100.0}});
  EXPECT_THROW((void)compare_artifacts("{\"schema\": \"other.v9\"}", good, 0.25),
               std::runtime_error);
  EXPECT_THROW((void)compare_artifacts("not json", good, 0.25),
               std::runtime_error);
  EXPECT_THROW(
      (void)compare_artifacts(R"({"schema": "bevr.bench.v1"})", good, 0.25),
      std::runtime_error);
  EXPECT_THROW(
      (void)compare_artifacts(
          R"({"schema": "bevr.bench.v1", "benchmarks": [{"name": "a"}]})",
          good, 0.25),
      std::runtime_error);
}

int run_bench_main(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return bench_main(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchMainCompare, RegressionExitsThree) {
  const std::string baseline = write_temp(
      "bevr_compare_baseline.json", make_artifact({{"alpha", 100.0}}));
  const std::string current = write_temp("bevr_compare_current.json",
                                         make_artifact({{"alpha", 150.0}}));
  EXPECT_EQ(run_bench_main({"bench", "--compare", current, "--baseline",
                            baseline}),
            3);
}

TEST(BenchMainCompare, IdenticalExitsZero) {
  const std::string path = write_temp("bevr_compare_same.json",
                                      make_artifact({{"alpha", 100.0}}));
  EXPECT_EQ(run_bench_main({"bench", "--compare", path, "--baseline", path}),
            0);
}

TEST(BenchMainCompare, UnreadableFileExitsTwo) {
  EXPECT_EQ(run_bench_main({"bench", "--compare", "/nonexistent/x.json",
                            "--baseline", "/nonexistent/y.json"}),
            2);
}

TEST(BenchMainCompare, LooserThresholdPasses) {
  const std::string baseline = write_temp(
      "bevr_compare_loose_base.json", make_artifact({{"alpha", 100.0}}));
  const std::string current = write_temp("bevr_compare_loose_cur.json",
                                         make_artifact({{"alpha", 150.0}}));
  EXPECT_EQ(run_bench_main({"bench", "--compare", current, "--baseline",
                            baseline, "--threshold", "0.6"}),
            0);
}

TEST(BaselineGate, RefusesDirtyTreeBaseline) {
  const std::string dirty =
      make_artifact({{"alpha", 100.0}}, "abc1234-dirty", 7);
  EXPECT_NE(baseline_refusal(dirty).find("dirty"), std::string::npos);
  const std::string baseline = write_temp("bevr_gate_dirty.json", dirty);
  const std::string current = write_temp("bevr_gate_dirty_cur.json",
                                         make_artifact({{"alpha", 100.0}}));
  EXPECT_EQ(run_bench_main({"bench", "--compare", current, "--baseline",
                            baseline}),
            2);
}

TEST(BaselineGate, RefusesBaselineUnderFiveRepetitions) {
  EXPECT_NE(baseline_refusal(make_artifact({{"alpha", 100.0}}, "abc1234", 4))
                .find("fewer than 5"),
            std::string::npos);
  const std::string baseline = write_temp(
      "bevr_gate_reps.json", make_artifact({{"alpha", 100.0}}, "abc1234", 1));
  const std::string current = write_temp("bevr_gate_reps_cur.json",
                                         make_artifact({{"alpha", 100.0}}));
  EXPECT_EQ(run_bench_main({"bench", "--compare", current, "--baseline",
                            baseline}),
            2);
}

TEST(BaselineGate, RefusesBaselineWithoutProvenance) {
  const std::string bare =
      R"({"schema": "bevr.bench.v1", "suite": "t", "provenance": {},)"
      R"( "benchmarks": [], "metrics": {}})";
  EXPECT_FALSE(baseline_refusal(bare).empty());
  EXPECT_THROW((void)baseline_refusal("{"), std::runtime_error);
}

TEST(BaselineGate, AcceptsCleanBaselineAtFiveRepetitions) {
  EXPECT_EQ(baseline_refusal(make_artifact({{"alpha", 1.0}}, "abc1234", 5)),
            "");
  // A tag-like describe that merely contains "dirty" is clean.
  EXPECT_EQ(baseline_refusal(make_artifact({{"alpha", 1.0}}, "dirty-fix-1", 5)),
            "");
}

TEST(BaselineGate, CommittedBaselinesAreAdmissible) {
  for (const char* name : {"BENCH_smoke.json", "BENCH_service.json",
                           "BENCH_admission.json", "BENCH_net2.json",
                           "BENCH_obs.json"}) {
    std::ifstream file(std::string(BEVR_BASELINE_DIR) + "/" + name);
    ASSERT_TRUE(file) << name;
    const std::string text((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(baseline_refusal(text), "") << name;
  }
}

}  // namespace
}  // namespace bevr::bench
