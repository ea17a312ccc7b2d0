#include "bevr/core/welfare.h"

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "bevr/core/continuum.h"
#include "bevr/core/fixed_load.h"
#include "bevr/core/variable_load.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/poisson.h"
#include "bevr/numerics/optimize.h"
#include "bevr/utility/utility.h"

namespace bevr::core {
namespace {

TEST(MaximizeWelfare, QuadraticUtilityHasAnalyticOptimum) {
  // V(C) = 10C − C²/2: optimum at C = 10 − p.
  auto v = [](double c) { return 10.0 * c - 0.5 * c * c; };
  const auto point = maximize_welfare(v, 2.0, 10.0);
  EXPECT_NEAR(point.capacity, 8.0, 1e-4);
  EXPECT_NEAR(point.welfare, v(8.0) - 2.0 * 8.0, 1e-6);
}

TEST(MaximizeWelfare, ExpensiveBandwidthMeansBuildNothing) {
  auto v = [](double c) { return std::min(c, 1.0); };  // utility caps at 1
  const auto point = maximize_welfare(v, 2.0, 1.0);    // price > marginal
  EXPECT_EQ(point.capacity, 0.0);
  EXPECT_EQ(point.welfare, 0.0);
}

TEST(MaximizeWelfare, ParameterValidation) {
  auto v = [](double c) { return c; };
  EXPECT_THROW((void)maximize_welfare(v, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)maximize_welfare(v, 1.0, 0.0), std::invalid_argument);
}

TEST(MaximizeWelfare, MatchesContinuumClosedFormExponentialRigid) {
  // The generic optimiser must reproduce the Lambert-W closed form.
  const ExponentialRigidContinuum model(0.01);
  auto v = [&model](double c) { return model.total_best_effort(c); };
  for (const double p : {0.05, 0.1, 0.2, 0.3}) {
    const auto point = maximize_welfare(v, p, 100.0, 2048);
    EXPECT_NEAR(point.welfare, model.welfare_best_effort(p),
                1e-3 * (1.0 + model.welfare_best_effort(p)))
        << "p=" << p;
    if (model.capacity_best_effort(p) > 0.0) {
      EXPECT_NEAR(point.capacity, model.capacity_best_effort(p),
                  0.02 * model.capacity_best_effort(p) + 0.5)
          << "p=" << p;
    }
  }
}

TEST(MaximizeWelfare, MatchesContinuumClosedFormExponentialReservation) {
  const ExponentialRigidContinuum model(0.01);
  auto v = [&model](double c) { return model.total_reservation(c); };
  for (const double p : {0.01, 0.1, 0.5}) {
    const auto point = maximize_welfare(v, p, 100.0, 2048);
    EXPECT_NEAR(point.welfare, model.welfare_reservation(p),
                1e-3 * (1.0 + model.welfare_reservation(p)))
        << "p=" << p;
  }
}

// Today's maximiser for a step V: hi expansion, 512-point scan, golden
// section. The flat path must reproduce it bit for bit.
WelfarePoint scan_and_golden(const std::function<double(double)>& v,
                             double price, double scale) {
  auto objective = [&v, price](double c) {
    const double value = v(c);
    return std::isfinite(value) ? value - price * c
                                : -std::numeric_limits<double>::infinity();
  };
  double hi = 4.0 * scale;
  double at_hi = objective(hi);
  while (hi < 1e10 && at_hi >= objective(0.9 * hi)) {
    hi *= 2.0;
    at_hi = objective(hi);
  }
  const auto best = numerics::grid_refine_max(objective, 0.0, hi, 512, 1e-9);
  if (best.value <= 0.0) return {0.0, 0.0};
  return {best.x, best.value};
}

TEST(MaximizeWelfare, SmoothUtilityCostsAboutOneHundredEvaluations) {
  // V = 100(1 − e^{−C/50}): V′ = p at C = 50·ln(2/p).
  int calls = 0;
  auto v = [&calls](double c) {
    ++calls;
    return 100.0 * -std::expm1(-c / 50.0);
  };
  for (const double p : {0.01, 0.1, 0.5, 1.5}) {
    calls = 0;
    const auto point = maximize_welfare(v, p, 100.0);
    EXPECT_LE(calls, 150) << "p=" << p;
    EXPECT_NEAR(point.capacity, 50.0 * std::log(2.0 / p), 1e-5) << "p=" << p;
    EXPECT_NEAR(point.welfare, v(point.capacity) - p * point.capacity, 1e-12);
    const double c = 50.0 * std::log(2.0 / p);
    EXPECT_NEAR(point.welfare, 100.0 - 50.0 * p - p * c, 1e-12) << "p=" << p;
  }
}

TEST(MaximizeWelfare, StaircaseUtilityKeepsTheScanAndGoldenBits) {
  // Rigid-like staircase: each unit of capacity serves one more flow.
  auto v = [](double c) {
    return 90.0 * (1.0 - std::exp(-std::floor(c) / 40.0));
  };
  for (const double p : {0.01, 0.05, 0.3, 0.9, 3.0}) {
    const auto expected = scan_and_golden(v, p, 100.0);
    const auto point = maximize_welfare(v, p, 100.0);
    EXPECT_EQ(point.capacity, expected.capacity) << "p=" << p;
    EXPECT_EQ(point.welfare, expected.welfare) << "p=" << p;
  }
}

TEST(MaximizeWelfare, SawtoothEndsAtLeastAtTheBestFinePoint) {
  // Smooth with a jump every 2.3 units of capacity, as a retry model's
  // V_R jumps at each k_max switch.
  auto v = [](double c) {
    return 80.0 * -std::expm1(-c / 60.0) +
           0.05 * std::floor(c / 2.3) - 0.02 * c;
  };
  for (const double p : {0.005, 0.02, 0.1, 0.4}) {
    const auto point = maximize_welfare(v, p, 100.0);
    // Every fine point within a coarse cell (7 fine steps) of the
    // result scores no higher: the scan saw them, and the best one wins
    // over a refinement that ends below it.
    const double step = 400.0 / 511.0;
    const auto at = [&](double c) { return v(c) - p * c; };
    const int j0 = static_cast<int>(point.capacity / step);
    for (int j = std::max(0, j0 - 6); j <= std::min(511, j0 + 7); ++j) {
      if (point.capacity == 0.0) break;
      EXPECT_GE(point.welfare, at(step * j) - 1e-12) << "p=" << p << " j=" << j;
    }
    EXPECT_GE(point.welfare, 0.0);
  }
}

TEST(EqualizingPriceRatio, ClosedFormAlgebraicRigid) {
  // γ(p) = (z−1)^{1/(z−2)} = 2 at z = 3, independent of p.
  const AlgebraicRigidContinuum model(3.0);
  auto wb = [&model](double p) { return model.welfare_best_effort(p); };
  auto wr = [&model](double p) { return model.welfare_reservation(p); };
  for (const double p : {0.001, 0.01, 0.1}) {
    const double gamma = equalizing_price_ratio(wb, wr, p);
    EXPECT_NEAR(gamma, 2.0, 1e-6) << "p=" << p;
    EXPECT_NEAR(model.equalizing_price_ratio(p), 2.0, 1e-9);
  }
}

TEST(EqualizingPriceRatio, ExponentialConvergesToOne) {
  // Paper §4: for exponential loads γ(p) → 1 as p → 0.
  const ExponentialRigidContinuum model(0.01);
  const double g_hi = model.equalizing_price_ratio(0.2);
  const double g_md = model.equalizing_price_ratio(1e-4);
  const double g_lo = model.equalizing_price_ratio(1e-10);
  EXPECT_GT(g_hi, g_md);
  EXPECT_GT(g_md, g_lo);
  EXPECT_GT(g_lo, 1.0);
  // Convergence is logarithmic (paper: γ ≈ 1 + ln(−ln p)/(−ln p)): at
  // p = 1e-10 the approximation predicts ≈ 1.14.
  const double l = std::log(1e10);
  EXPECT_NEAR(g_lo, 1.0 + std::log(l) / l, 0.03);
}

TEST(EqualizingPriceRatio, GammaIsAtLeastOne) {
  const ExponentialRigidContinuum model(0.01);
  auto wb = [&model](double p) { return model.welfare_best_effort(p); };
  auto wr = [&model](double p) { return model.welfare_reservation(p); };
  for (const double p : {1e-6, 1e-3, 0.1, 0.3}) {
    EXPECT_GE(equalizing_price_ratio(wb, wr, p), 1.0) << "p=" << p;
  }
}

TEST(EqualizingPriceRatio, DefinitionHolds) {
  // W_R(γ·p) = W_B(p) by construction.
  const ExponentialAdaptiveContinuum model(0.01, 0.5);
  const double p = 0.05;
  const double gamma = model.equalizing_price_ratio(p);
  EXPECT_NEAR(model.welfare_reservation(gamma * p),
              model.welfare_best_effort(p),
              1e-8 * (1.0 + model.welfare_best_effort(p)));
}

TEST(WelfareAnalysis, DiscretePoissonRigidRatioInPaperRange) {
  // Paper §4: Poisson + rigid, γ(p) between roughly 1.1 and 1.2 over
  // most of the price range.
  const auto load = std::make_shared<dist::PoissonLoad>(100.0);
  const auto pi = std::make_shared<utility::Rigid>(1.0);
  const auto model = std::make_shared<VariableLoadModel>(load, pi);
  const WelfareAnalysis analysis(
      [model](double c) { return model->total_best_effort(c); },
      [model](double c) { return model->total_reservation(c); }, 100.0);
  const double gamma = analysis.price_ratio(0.1);
  EXPECT_GT(gamma, 1.05);
  EXPECT_LT(gamma, 1.30);
}

TEST(WelfareAnalysis, DiscretePoissonAdaptiveRatioNearOne) {
  // Paper §4: Poisson + adaptive, the two architectures are nearly
  // equivalent — γ(p) ≈ 1 for all but the highest prices.
  const auto load = std::make_shared<dist::PoissonLoad>(100.0);
  const auto pi = std::make_shared<utility::AdaptiveExp>();
  const auto model = std::make_shared<VariableLoadModel>(load, pi);
  const WelfareAnalysis analysis(
      [model](double c) { return model->total_best_effort(c); },
      [model](double c) { return model->total_reservation(c); }, 100.0);
  const double gamma = analysis.price_ratio(0.01);
  EXPECT_GE(gamma, 1.0);
  EXPECT_LT(gamma, 1.05);
}

// Where best effort builds nothing, γ = p̂*/p with p̂* = sup V_R(C)/C =
// P(K ≥ 1)·max_b π(b)/b: each term of V_R(C)/C is at most P(k)·π(b)/b,
// and C = b* (one flow admitted) attains the bound.
TEST(WelfareAnalysis, RatioWhereBestEffortBuildsNothingIsTheShutdownPrice) {
  const std::vector<std::shared_ptr<const dist::DiscreteLoad>> loads{
      std::make_shared<dist::ExponentialLoad>(
          dist::ExponentialLoad::with_mean(100.0)),
      std::make_shared<dist::AlgebraicLoad>(
          dist::AlgebraicLoad::with_mean(3.0, 100.0))};
  const std::vector<std::shared_ptr<const utility::UtilityFunction>> utils{
      std::make_shared<utility::Rigid>(1.0),
      std::make_shared<utility::AdaptiveExp>()};
  for (const auto& load : loads) {
    for (const auto& pi : utils) {
      VariableLoadModel::Options options;
      options.tail_eps = 1e-10;
      options.direct_budget = 16'384;
      const auto model = std::make_shared<VariableLoadModel>(load, pi, options);
      const WelfareAnalysis analysis(
          [model](double c) { return model->total_best_effort(c); },
          [model](double c) { return model->total_reservation(c); },
          model->mean_load());
      const double p = 0.4;
      ASSERT_EQ(analysis.best_effort(p).welfare, 0.0);
      const double b = optimal_share(*pi);
      const double shutdown = (1.0 - load->pmf(0)) * pi->value(b) / b;
      EXPECT_NEAR(analysis.price_ratio(p) * p, shutdown, 1e-8 * shutdown);
    }
  }
}

// A step V_R/C falls along each step, so p̂* sits where a step begins.
// At b̂ = 1.3 the 4096-point scan's best point lies past the first
// step's start and golden section alone climbed the step before it,
// 2.5e-3 low; the bisection for the step's start finds it.
TEST(WelfareAnalysis, ShutdownPriceOfAStepUtilityIsAStepStart) {
  const auto load = std::make_shared<dist::ExponentialLoad>(
      dist::ExponentialLoad::with_mean(100.0));
  VariableLoadModel::Options options;
  options.tail_eps = 1e-10;
  options.direct_budget = 16'384;
  const auto model = std::make_shared<VariableLoadModel>(
      load, std::make_shared<utility::Rigid>(1.3), options);
  const WelfareAnalysis analysis(
      [model](double c) { return model->total_best_effort(c); },
      [model](double c) { return model->total_reservation(c); },
      model->mean_load());
  const double p = 0.7;
  ASSERT_EQ(analysis.best_effort(p).welfare, 0.0);
  const double shutdown = (1.0 - load->pmf(0)) / 1.3;
  EXPECT_NEAR(analysis.price_ratio(p) * p, shutdown, 2e-12 * shutdown);
}

TEST(WelfareAnalysis, ProvisioningDecreasesWithPrice) {
  const auto load = std::make_shared<dist::ExponentialLoad>(
      dist::ExponentialLoad::with_mean(100.0));
  const auto pi = std::make_shared<utility::Rigid>(1.0);
  const auto model = std::make_shared<VariableLoadModel>(load, pi);
  const WelfareAnalysis analysis(
      [model](double c) { return model->total_best_effort(c); },
      [model](double c) { return model->total_reservation(c); }, 100.0);
  const auto cheap = analysis.reservation(0.01);
  const auto costly = analysis.reservation(0.3);
  EXPECT_GT(cheap.capacity, costly.capacity);
  EXPECT_GT(cheap.welfare, costly.welfare);
}

}  // namespace
}  // namespace bevr::core
