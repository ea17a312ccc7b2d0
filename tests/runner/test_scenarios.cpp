// ScenarioSpec validation, factories, the one grid generator
// (GridSpec), and the built-in paper-figure registry.
#include "bevr/runner/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace bevr::runner {
namespace {

TEST(GridSpec, LinearGridHitsBothEndpoints) {
  const GridSpec grid{10.0, 400.0, 40, false};
  const auto values = grid.values();
  ASSERT_EQ(values.size(), 40u);
  EXPECT_DOUBLE_EQ(values.front(), 10.0);
  EXPECT_DOUBLE_EQ(values.back(), 400.0);
}

TEST(GridSpec, LogGridHitsBothEndpoints) {
  const GridSpec grid{1e-3, 0.4, 9, true};
  const auto values = grid.values();
  ASSERT_EQ(values.size(), 9u);
  EXPECT_NEAR(values.front(), 1e-3, 1e-12);
  EXPECT_NEAR(values.back(), 0.4, 1e-12);
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_GT(values[i], values[i - 1]);
  }
}

TEST(GridSpec, SinglePointGridIsJustLo) {
  const GridSpec grid{50.0, 50.0, 1, false};
  const auto values = grid.values();
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values[0], 50.0);
}

// The paper's capacity axis: every point must be the exact multiple of
// 10, not one ulp off. The rigid utility's k_max(C) = ⌊C⌋ turns a
// 59.99999999999999 into a different row than 60.
TEST(GridSpec, PaperCapacityGridIsExact) {
  const auto values = GridSpec{10.0, 400.0, 40, false}.values();
  ASSERT_EQ(values.size(), 40u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], 10.0 * static_cast<double>(i + 1)) << "i=" << i;
  }
}

TEST(LinearGrid, CoversEndpointsEvenly) {
  const auto grid = GridSpec{0.0, 10.0, 5, false}.values();
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_EQ(grid.front(), 0.0);
  EXPECT_EQ(grid[2], 5.0);
  EXPECT_EQ(grid.back(), 10.0);
}

TEST(LogGrid, CoversEndpointsGeometrically) {
  const auto grid = GridSpec{1.0, 16.0, 5, true}.values();
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_NEAR(grid.front(), 1.0, 1e-12);
  EXPECT_NEAR(grid[1], 2.0, 1e-12);
  EXPECT_NEAR(grid.back(), 16.0, 1e-12);
}

// A single point used to divide by (points - 1) and emit NaN.
TEST(LinearGrid, SinglePointIsLowerBoundNotNaN) {
  const auto grid = GridSpec{3.5, 10.0, 1, false}.values();
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0], 3.5);
}

TEST(LogGrid, SinglePointIsLowerBoundNotNaN) {
  const auto grid = GridSpec{2.0, 2048.0, 1, true}.values();
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0], 2.0);
}

TEST(Grids, NonPositivePointCountsAreEmpty) {
  for (const bool log_spaced : {false, true}) {
    EXPECT_TRUE((GridSpec{1.0, 2.0, 0, log_spaced}.values().empty()));
    EXPECT_TRUE((GridSpec{1.0, 2.0, -3, log_spaced}.values().empty()));
  }
}

TEST(Grids, EveryValueIsFinite) {
  for (const double v : GridSpec{-4.0, 4.0, 9, false}.values()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  for (const double v : GridSpec{1e-8, 1e8, 33, true}.values()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ScenarioSpec, ValidateRejectsBadGrids) {
  ScenarioSpec spec;
  spec.name = "bad";
  spec.grid = GridSpec{100.0, 10.0, 40, false};  // lo > hi
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.grid = GridSpec{10.0, 100.0, 0, false};  // no points
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.grid = GridSpec{10.0, 100.0, 40, false};
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpec, ValidateRejectsAlgebraicWithoutFiniteMean) {
  ScenarioSpec spec;
  spec.name = "bad_z";
  spec.load = LoadFamily::kAlgebraic;
  spec.load_param = 2.0;  // needs z > 2
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioFactories, LoadsReportThePaperMean) {
  ScenarioSpec spec;
  spec.name = "loads";
  for (const LoadFamily family :
       {LoadFamily::kPoisson, LoadFamily::kExponential,
        LoadFamily::kAlgebraic}) {
    spec.load = family;
    spec.load_param = 3.0;
    const auto load = make_load(spec);
    EXPECT_NEAR(load->mean(), 100.0, 1e-6) << to_string(family);
  }
}

TEST(ScenarioFactories, ContinuumUsesClosedFormsWhereAvailable) {
  ScenarioSpec spec;
  spec.name = "cont";
  spec.model = ModelKind::kContinuum;
  spec.load = LoadFamily::kExponential;
  spec.util = UtilityFamily::kRigid;
  spec.util_param = 1.0;
  EXPECT_NE(dynamic_cast<const core::ExponentialRigidContinuum*>(
                make_continuum_model(spec).get()),
            nullptr);
  spec.load = LoadFamily::kAlgebraic;
  spec.load_param = 2.5;
  EXPECT_NE(dynamic_cast<const core::AlgebraicRigidContinuum*>(
                make_continuum_model(spec).get()),
            nullptr);
  // No continuum analogue for Poisson loads.
  spec.load = LoadFamily::kPoisson;
  EXPECT_THROW(make_continuum_model(spec), std::invalid_argument);
}

TEST(ScenarioRegistry, BuiltinContainsThePaperFigureSuite) {
  const auto& registry = ScenarioRegistry::builtin();
  for (const char* name :
       {"fig2_rigid", "fig2_adaptive", "fig3_rigid", "fig3_adaptive",
        "fig4_rigid", "fig4_adaptive", "fig2_welfare_rigid",
        "fig3_welfare_adaptive", "fig4_welfare_rigid", "fixed_load_rigid",
        "continuum_exp_rigid", "continuum_alg_adaptive",
        "sim_mm_inf_validation"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  // Figure scenarios carry the paper's k̄ = 100 and grids.
  const ScenarioSpec* fig3 = registry.find("fig3_rigid");
  ASSERT_NE(fig3, nullptr);
  EXPECT_EQ(fig3->model, ModelKind::kVariableLoad);
  EXPECT_EQ(fig3->load, LoadFamily::kExponential);
  EXPECT_DOUBLE_EQ(fig3->load_mean, 100.0);
  EXPECT_EQ(fig3->grid.points, 40);
}

TEST(ScenarioRegistry, MatchFiltersBySubstring) {
  const auto& registry = ScenarioRegistry::builtin();
  const auto fig4 = registry.match("fig4");
  EXPECT_EQ(fig4.size(), 4u);  // rigid, adaptive, welfare_rigid, welfare_adaptive
  EXPECT_TRUE(registry.match("no_such_scenario").empty());
  // Every built-in spec validates.
  for (const auto& spec : registry.all()) {
    EXPECT_NO_THROW(spec.validate()) << spec.name;
  }
}

TEST(ScenarioRegistry, AddRejectsDuplicates) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "dup";
  registry.add(spec);
  EXPECT_THROW(registry.add(spec), std::invalid_argument);
}

}  // namespace
}  // namespace bevr::runner
