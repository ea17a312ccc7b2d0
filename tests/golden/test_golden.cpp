// Golden-file regression suite: every scenario in the built-in
// registry, bit-exact against a committed CSV.
//
// Each golden is the CsvSink output of run_scenario with the default
// run options (seed 42) minus the '#' metadata/summary comments —
// i.e. the header line plus the data rows, every value printed %.17g
// (round-trip exact). The matrix re-runs each scenario at 1 and 4
// threads; both must match the same golden byte for byte, which pins
// two contracts at once:
//  * value regression — any numeric drift against the committed rows;
//  * the runner determinism contract (1 vs 4 threads, incl. the
//    stochastic sim scenario's seed-split reproducibility).
// The kernels' equivalence with the scalar model is pinned separately,
// against a scalar oracle, in tests/kernels/test_kernel_equivalence.cpp.
//
// Refresh after an *intentional* value change:
//   scripts/update_goldens.sh   (then review the diff like any code)
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bevr/runner/result_sink.h"
#include "bevr/runner/runner.h"
#include "bevr/runner/scenario.h"

#ifndef BEVR_GOLDEN_DIR
#error "BEVR_GOLDEN_DIR must point at the committed golden CSVs"
#endif

namespace bevr::runner {
namespace {

/// CsvSink output with the provenance comments dropped: the golden is
/// the data contract, not the run's metadata (git hash, wall time).
std::string strip_comments(const std::string& csv) {
  std::istringstream in(csv);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '#') continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::string run_to_csv(const ScenarioSpec& spec, unsigned threads) {
  std::ostringstream out;
  CsvSink sink(out);
  RunOptions options;
  options.threads = threads;
  run_scenario(spec, options, sink);
  return strip_comments(out.str());
}

std::string read_golden(const std::string& scenario) {
  const std::string path =
      std::string(BEVR_GOLDEN_DIR) + "/" + scenario + ".csv";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden " << path
                            << " — run scripts/update_goldens.sh";
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

class GoldenSuite : public ::testing::TestWithParam<unsigned> {};

TEST_P(GoldenSuite, EveryRegistryScenarioIsBitExact) {
  const unsigned threads = GetParam();
  for (const ScenarioSpec& spec : ScenarioRegistry::builtin().all()) {
    SCOPED_TRACE(spec.name);
    const std::string golden = read_golden(spec.name);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(run_to_csv(spec, threads), golden)
        << spec.name << " drifted from its golden (threads=" << threads
        << "). If the change is intentional, refresh with "
           "scripts/update_goldens.sh and review the diff.";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenSuite, ::testing::Values(1u, 4u),
                         [](const auto& labelled) {
                           return std::to_string(labelled.param) + "thread";
                         });

// The registry must stay covered: a scenario added without a golden
// fails here, not silently.
TEST(GoldenSuite, RegistryFullyCovered) {
  EXPECT_EQ(ScenarioRegistry::builtin().all().size(), 26u);
  for (const ScenarioSpec& spec : ScenarioRegistry::builtin().all()) {
    EXPECT_FALSE(read_golden(spec.name).empty()) << spec.name;
  }
}

}  // namespace
}  // namespace bevr::runner
