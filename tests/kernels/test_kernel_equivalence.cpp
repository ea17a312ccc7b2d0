// The kernels' headline guarantee: a SweepEvaluator reproduces the
// scalar VariableLoadModel bit-for-bit — per accessor, per grid row,
// and end-to-end through the runner (against the scalar oracle) for
// every load × utility pairing the built-in registry exercises, at any
// thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bevr/core/variable_load.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/poisson.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/runner/runner.h"
#include "bevr/utility/utility.h"
#include "scalar_oracle.h"

namespace bevr::kernels {
namespace {

struct NamedLoad {
  std::string name;
  std::shared_ptr<const dist::DiscreteLoad> load;
};

struct NamedUtility {
  std::string name;
  std::shared_ptr<const utility::UtilityFunction> pi;
};

std::vector<NamedLoad> paper_loads() {
  return {
      {"poisson", std::make_shared<dist::PoissonLoad>(100.0)},
      {"exponential", std::make_shared<dist::ExponentialLoad>(
                          dist::ExponentialLoad::with_mean(100.0))},
      {"algebraic", std::make_shared<dist::AlgebraicLoad>(
                        dist::AlgebraicLoad::with_mean(3.0, 100.0))},
  };
}

std::vector<NamedUtility> paper_utilities() {
  return {
      {"rigid", std::make_shared<utility::Rigid>(1.0)},
      {"adaptive", std::make_shared<utility::AdaptiveExp>()},
      {"piecewise", std::make_shared<utility::PiecewiseLinear>(0.5)},
      {"elastic", std::make_shared<utility::Elastic>()},
      {"algebraic_tail", std::make_shared<utility::AlgebraicTail>(2.0)},
  };
}

std::vector<double> capacity_grid() {
  std::vector<double> grid;
  for (int i = 0; i < 12; ++i) grid.push_back(20.0 + 27.5 * i);
  return grid;
}

TEST(KernelEquivalence, PointApiIsBitIdenticalForEveryPairing) {
  for (const auto& [load_name, load] : paper_loads()) {
    for (const auto& [util_name, pi] : paper_utilities()) {
      const auto model =
          std::make_shared<core::VariableLoadModel>(load, pi);
      const SweepEvaluator fast(model);
      for (const double c : capacity_grid()) {
        const std::string where =
            load_name + " x " + util_name + " at C=" + std::to_string(c);
        ASSERT_EQ(fast.k_max(c), model->k_max(c)) << where;
        ASSERT_EQ(fast.best_effort(c), model->best_effort(c)) << where;
        ASSERT_EQ(fast.reservation(c), model->reservation(c)) << where;
        ASSERT_EQ(fast.performance_gap(c), model->performance_gap(c))
            << where;
        ASSERT_EQ(fast.blocking_fraction(c), model->blocking_fraction(c))
            << where;
      }
    }
  }
}

TEST(KernelEquivalence, BandwidthGapIsBitIdentical) {
  // The root solve composes dozens of B() probes; identical operands at
  // every iterate means identical iterates, so the gap matches exactly.
  const std::vector<NamedLoad> loads = paper_loads();
  const std::vector<NamedUtility> utils = paper_utilities();
  const std::vector<std::pair<std::size_t, std::size_t>> picks = {
      {0, 0},  // poisson x rigid (figure 2)
      {1, 1},  // exponential x adaptive (figure 3)
      {2, 0},  // algebraic x rigid (figure 4)
  };
  for (const auto& [li, ui] : picks) {
    const auto model = std::make_shared<core::VariableLoadModel>(
        loads[li].load, utils[ui].pi);
    const SweepEvaluator fast(model);
    for (const double c : {60.0, 120.0, 240.0}) {
      ASSERT_EQ(fast.bandwidth_gap(c), model->bandwidth_gap(c))
          << loads[li].name << " x " << utils[ui].name << " at C=" << c;
    }
  }
}

TEST(KernelEquivalence, EvaluateGridMatchesThePointApi) {
  const auto model = std::make_shared<core::VariableLoadModel>(
      paper_loads()[0].load, paper_utilities()[1].pi);
  const SweepEvaluator fast(model);
  const std::vector<double> grid = capacity_grid();
  const auto rows = fast.evaluate_grid(grid, /*with_bandwidth_gap=*/false);
  ASSERT_EQ(rows.size(), grid.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double c = grid[i];
    EXPECT_EQ(rows[i].capacity, c);
    EXPECT_EQ(rows[i].best_effort, model->best_effort(c));
    EXPECT_EQ(rows[i].reservation, model->reservation(c));
    EXPECT_EQ(rows[i].performance_gap, model->performance_gap(c));
    EXPECT_EQ(rows[i].blocking, model->blocking_fraction(c));
    const auto kmax = model->k_max(c);
    EXPECT_EQ(rows[i].k_max,
              kmax ? static_cast<double>(*kmax) : -1.0);
  }
}

TEST(KernelEquivalence, ElasticGridRowsCarryTheSentinel) {
  const auto model = std::make_shared<core::VariableLoadModel>(
      paper_loads()[1].load, paper_utilities()[3].pi);
  const SweepEvaluator fast(model);
  const std::vector<double> grid = {50.0, 100.0, 200.0};
  for (const auto& row : fast.evaluate_grid(grid, false)) {
    EXPECT_EQ(row.k_max, -1.0);
  }
}

// ---------------------------------------------------------------------
// Runner-level: run_scenario's rows equal the scalar oracle's, bit for
// bit, for every variable_load, welfare and fixed_load pairing in the
// built-in registry plus the model columns of the simulation scenario,
// at 1/4/7 threads, over shrunken grids.

// Every distinct (model, load, utility) pairing the registry runs
// through the memo + kernels stack, with its grid shrunk for test
// budget.
std::vector<runner::ScenarioSpec> shrunken_registry_pairings() {
  std::vector<runner::ScenarioSpec> specs;
  std::set<std::string> seen;
  for (const auto& spec : runner::ScenarioRegistry::builtin().all()) {
    if (spec.model != runner::ModelKind::kVariableLoad &&
        spec.model != runner::ModelKind::kWelfare &&
        spec.model != runner::ModelKind::kFixedLoad &&
        spec.model != runner::ModelKind::kSimulation) {
      continue;
    }
    const std::string key = to_string(spec.model) + "|" +
                            to_string(spec.load) + "|" +
                            std::to_string(spec.load_param) + "|" +
                            to_string(spec.util) + "|" +
                            std::to_string(spec.util_param);
    if (!seen.insert(key).second) continue;
    runner::ScenarioSpec small = spec;
    small.name = "eq_" + std::to_string(specs.size());
    small.grid.points = 4;
    if (small.model == runner::ModelKind::kSimulation) {
      small.sim_horizon = 300.0;
      small.sim_warmup = 50.0;
    }
    specs.push_back(std::move(small));
  }
  return specs;
}

TEST(KernelEquivalence, RunnerRowsMatchForEveryRegistryPairing) {
  const auto specs = shrunken_registry_pairings();
  ASSERT_EQ(specs.size(), 15u);  // 6 variable_load, 6 welfare, 2 fixed, 1 sim
  for (const auto& spec : specs) {
    const ScalarOracle oracle(spec);
    std::vector<ScalarOracle::Row> expected;
    for (const double x : spec.grid.values()) expected.push_back(oracle.row(x));
    for (const unsigned threads : {1u, 4u, 7u}) {
      const std::string where = spec.name + " (" + to_string(spec.model) +
                                " " + to_string(spec.load) + " " +
                                to_string(spec.util) + ") at " +
                                std::to_string(threads) + " threads";
      runner::VectorSink sink;
      runner::RunOptions options;
      options.threads = threads;
      runner::run_scenario(spec, options, sink);
      ASSERT_EQ(sink.rows().size(), expected.size()) << where;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto& values = sink.rows()[i].values;
        ASSERT_EQ(values.size(), expected[i].size()) << where;
        for (std::size_t j = 0; j < values.size(); ++j) {
          if (!expected[i][j]) continue;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(values[j]),
                    std::bit_cast<std::uint64_t>(*expected[i][j]))
              << where << ", row " << i << ", column "
              << sink.columns()[j] << ": runner "
              << runner::format_value(values[j]) << " vs oracle "
              << runner::format_value(*expected[i][j]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace bevr::kernels
