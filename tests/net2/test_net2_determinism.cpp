// Determinism of the four registry net2 scenarios: every emitted row
// is a pure function of (spec, base_seed) — bit-identical at 1, 4 and
// 7 worker threads. Plus the net2/meanfield/not_converged counter:
// zero on every registry scenario, one per point that stops at
// max_iterations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bevr/obs/metrics.h"
#include "bevr/runner/runner.h"
#include "bevr/runner/scenario.h"

namespace bevr::runner {
namespace {

std::vector<std::string> data_lines(const std::string& payload) {
  std::vector<std::string> lines;
  std::istringstream stream(payload);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.find("\"type\":\"row\"") != std::string::npos) {
      lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string run_jsonl(const ScenarioSpec& spec, unsigned threads,
                      std::uint64_t seed) {
  std::ostringstream out;
  JsonlSink sink(out);
  RunOptions options;
  options.threads = threads;
  options.base_seed = seed;
  run_scenario(spec, options, sink);
  return out.str();
}

const ScenarioSpec& registry_scenario(const std::string& name) {
  const ScenarioSpec* spec = ScenarioRegistry::builtin().find(name);
  EXPECT_NE(spec, nullptr) << name;
  return *spec;
}

std::uint64_t not_converged() {
  return obs::MetricsRegistry::global().snapshot().counter(
      "net2/meanfield/not_converged");
}

class Net2Determinism : public ::testing::TestWithParam<const char*> {};

TEST_P(Net2Determinism, RowsAreThreadCountInvariant) {
  const ScenarioSpec& spec = registry_scenario(GetParam());
  const auto serial = data_lines(run_jsonl(spec, 1, 42));
  const auto parallel4 = data_lines(run_jsonl(spec, 4, 42));
  const auto parallel7 = data_lines(run_jsonl(spec, 7, 42));
  ASSERT_EQ(serial.size(),
            static_cast<std::size_t>(spec.grid.points));
  EXPECT_EQ(serial, parallel4);
  EXPECT_EQ(serial, parallel7);
}

TEST_P(Net2Determinism, EveryMeanFieldPointConverges) {
  ASSERT_TRUE(obs::MetricsRegistry::global().enabled());
  const std::uint64_t before = not_converged();
  (void)run_jsonl(registry_scenario(GetParam()), 4, 42);
  EXPECT_EQ(not_converged(), before);
}

INSTANTIATE_TEST_SUITE_P(RegistryScenarios, Net2Determinism,
                         ::testing::Values("net2_policy_load",
                                           "net2_fixed_point_check",
                                           "net2_blocking_vs_n",
                                           "net2_meanfield_scale"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(Net2Scenarios, SeedMovesTheSimulationRows) {
  const ScenarioSpec& spec = registry_scenario("net2_policy_load");
  EXPECT_NE(data_lines(run_jsonl(spec, 1, 42)),
            data_lines(run_jsonl(spec, 1, 43)));
}

TEST(Net2Scenarios, MeanFieldScaleIsSeedFree) {
  // Pure fixed-point rows: no simulation anywhere, so even the seed
  // cannot move them.
  const ScenarioSpec& spec = registry_scenario("net2_meanfield_scale");
  EXPECT_EQ(data_lines(run_jsonl(spec, 1, 42)),
            data_lines(run_jsonl(spec, 1, 43)));
}

TEST(Net2Scenarios, NonConvergedMeanFieldPointsAreCounted) {
  // Damping 1e-6 moves σ by a millionth of the residual per step, so no
  // point reaches the 1e-12 tolerance in 10⁴ iterations. Each still
  // emits its row; the counter says it did not converge. Both mean-
  // field paths: the pure fixed point, and simulation against it.
  ASSERT_TRUE(obs::MetricsRegistry::global().enabled());
  ScenarioSpec pure = registry_scenario("net2_meanfield_scale");
  pure.grid = GridSpec{10.0, 40.0, 3, false};
  pure.net2.mf_damping = 1e-6;
  pure.net2.mf_tolerance = 1e-12;
  std::uint64_t before = not_converged();
  EXPECT_EQ(data_lines(run_jsonl(pure, 1, 42)).size(), 3u);
  EXPECT_EQ(not_converged() - before, 3u);

  ScenarioSpec check = registry_scenario("net2_fixed_point_check");
  check.grid = GridSpec{4.0, 6.0, 2, false};
  check.net2.nodes = 4;
  check.net2.trace.horizon = 20.0;
  check.net2.warmup = 2.0;
  check.net2.mf_damping = 1e-6;
  before = not_converged();
  EXPECT_EQ(data_lines(run_jsonl(check, 2, 42)).size(), 2u);
  EXPECT_EQ(not_converged() - before, 2u);
}

TEST(Net2Scenarios, ColumnsMatchTheSweep) {
  const auto columns = [](const char* name) {
    return scenario_columns(registry_scenario(name));
  };
  EXPECT_EQ(columns("net2_policy_load").front(), "pair_load");
  EXPECT_EQ(columns("net2_fixed_point_check").back(), "ci3");
  EXPECT_EQ(columns("net2_blocking_vs_n").front(), "nodes");
  EXPECT_EQ(columns("net2_meanfield_scale").front(), "capacity");
}

TEST(Net2Scenarios, ValidateCatchesContradictorySpecs) {
  ScenarioSpec spec = registry_scenario("net2_fixed_point_check");
  spec.net2.topology = net2::TopologyKind::kRing;  // mean field needs mesh
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = registry_scenario("net2_policy_load");
  spec.util = UtilityFamily::kElastic;  // no k_max for the reserved lane
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = registry_scenario("net2_policy_load");
  spec.net2.trunk_reserve = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = registry_scenario("net2_meanfield_scale");
  spec.net2.mf_target_blocking = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace bevr::runner
