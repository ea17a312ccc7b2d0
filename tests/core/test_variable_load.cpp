#include "bevr/core/variable_load.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/poisson.h"
#include "bevr/utility/utility.h"

namespace bevr::core {
namespace {

using dist::AlgebraicLoad;
using dist::DiscreteLoad;
using dist::ExponentialLoad;
using dist::PoissonLoad;

std::shared_ptr<const DiscreteLoad> make_load(const std::string& kind) {
  if (kind == "poisson") return std::make_shared<PoissonLoad>(100.0);
  if (kind == "exponential") {
    return std::make_shared<ExponentialLoad>(
        ExponentialLoad::with_mean(100.0));
  }
  return std::make_shared<AlgebraicLoad>(AlgebraicLoad::with_mean(3.0, 100.0));
}

std::shared_ptr<const utility::UtilityFunction> make_utility(
    const std::string& kind) {
  if (kind == "rigid") return std::make_shared<utility::Rigid>(1.0);
  return std::make_shared<utility::AdaptiveExp>();
}

TEST(VariableLoadModel, ConstructionChecks) {
  EXPECT_THROW(VariableLoadModel(nullptr, make_utility("rigid")),
               std::invalid_argument);
  EXPECT_THROW(VariableLoadModel(make_load("poisson"), nullptr),
               std::invalid_argument);
  VariableLoadModel::Options bad;
  bad.tail_eps = 0.0;
  EXPECT_THROW(
      VariableLoadModel(make_load("poisson"), make_utility("rigid"), bad),
      std::invalid_argument);
}

TEST(VariableLoadModel, ZeroCapacityGivesZeroUtility) {
  const VariableLoadModel model(make_load("poisson"), make_utility("rigid"));
  EXPECT_EQ(model.best_effort(0.0), 0.0);
  EXPECT_EQ(model.reservation(0.0), 0.0);
  EXPECT_THROW((void)model.best_effort(-1.0), std::invalid_argument);
}

TEST(VariableLoadModel, RigidBestEffortClosedForm) {
  // For rigid b̂=1: B(C) = (1/k̄)·Σ_{k ≤ C} k·P(k).
  const auto load = make_load("poisson");
  const VariableLoadModel model(load, make_utility("rigid"));
  for (const double c : {50.0, 100.0, 130.0}) {
    double direct = 0.0;
    for (std::int64_t k = 1;
         k <= static_cast<std::int64_t>(std::floor(c)); ++k) {
      direct += static_cast<double>(k) * load->pmf(k);
    }
    EXPECT_NEAR(model.best_effort(c), direct / 100.0, 1e-12) << "C=" << c;
  }
}

TEST(VariableLoadModel, RigidReservationClosedForm) {
  // R(C) = (1/k̄)·E[min(K, ⌊C⌋)] for rigid b̂=1.
  const auto load = make_load("exponential");
  const VariableLoadModel model(load, make_utility("rigid"));
  for (const double c : {80.0, 100.0, 250.0}) {
    const auto kmax = static_cast<std::int64_t>(std::floor(c));
    double direct = 0.0;
    for (std::int64_t k = 1; k <= kmax; ++k) {
      direct += static_cast<double>(k) * load->pmf(k);
    }
    direct += static_cast<double>(kmax) * load->tail_above(kmax);
    EXPECT_NEAR(model.reservation(c), direct / 100.0, 1e-11) << "C=" << c;
  }
}

TEST(VariableLoadModel, ElasticReservationEqualsBestEffort) {
  // Elastic utilities: admission control never helps (paper §2).
  const VariableLoadModel model(make_load("poisson"),
                                std::make_shared<utility::Elastic>());
  for (const double c : {30.0, 100.0, 300.0}) {
    EXPECT_DOUBLE_EQ(model.reservation(c), model.best_effort(c));
  }
}

TEST(VariableLoadModel, BandwidthGapDefinition) {
  // Δ(C) satisfies B(C+Δ) = R(C) by definition.
  const VariableLoadModel model(make_load("exponential"),
                                make_utility("adaptive"));
  for (const double c : {50.0, 100.0, 200.0}) {
    const double delta = model.bandwidth_gap(c);
    EXPECT_NEAR(model.best_effort(c + delta), model.reservation(c), 1e-7)
        << "C=" << c;
  }
}

TEST(VariableLoadModel, BlockingFractionMatchesDirectSum) {
  const auto load = make_load("exponential");
  const VariableLoadModel model(load, make_utility("rigid"));
  const double c = 120.0;
  const std::int64_t kmax = 120;
  double direct = 0.0;
  for (std::int64_t k = kmax + 1; k <= 20'000; ++k) {
    direct += load->pmf(k) * static_cast<double>(k - kmax) / 100.0;
  }
  EXPECT_NEAR(model.blocking_fraction(c), direct, 1e-9);
}

// ---------------------------------------------------------------------------
// Property sweeps over the paper's full 6-case grid × capacities.

using GridParam = std::tuple<std::string, std::string, double>;

class ModelGridSweep : public ::testing::TestWithParam<GridParam> {
 protected:
  [[nodiscard]] VariableLoadModel model() const {
    const auto& [load_kind, util_kind, capacity] = GetParam();
    (void)capacity;
    return VariableLoadModel(make_load(load_kind), make_utility(util_kind));
  }
  [[nodiscard]] double capacity() const { return std::get<2>(GetParam()); }
};

// Invariant: reservations never do worse than best effort (paper §3.1:
// R(C) ≥ B(C) always).
TEST_P(ModelGridSweep, ReservationDominatesBestEffort) {
  const auto m = model();
  EXPECT_GE(m.reservation(capacity()) + 1e-12, m.best_effort(capacity()));
}

// Invariant: both utilities lie in [0, 1].
TEST_P(ModelGridSweep, UtilitiesAreNormalised) {
  const auto m = model();
  for (const double v :
       {m.best_effort(capacity()), m.reservation(capacity())}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

// Invariant: both curves are nondecreasing in capacity.
TEST_P(ModelGridSweep, MonotoneInCapacity) {
  const auto m = model();
  const double c = capacity();
  EXPECT_LE(m.best_effort(c), m.best_effort(c * 1.1) + 1e-11);
  EXPECT_LE(m.reservation(c), m.reservation(c * 1.1) + 1e-11);
}

// Invariant: the bandwidth gap is consistent with the performance gap
// (δ = 0 ⇒ Δ = 0; δ > tolerance ⇒ Δ > 0).
TEST_P(ModelGridSweep, GapsAreConsistent) {
  const auto m = model();
  const double delta = m.performance_gap(capacity());
  const double gap = m.bandwidth_gap(capacity());
  EXPECT_GE(gap, 0.0);
  if (delta > 1e-9) {
    EXPECT_GT(gap, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, ModelGridSweep,
    ::testing::Combine(::testing::Values("poisson", "exponential",
                                         "algebraic"),
                       ::testing::Values("rigid", "adaptive"),
                       ::testing::Values(25.0, 75.0, 100.0, 150.0, 300.0)),
    [](const ::testing::TestParamInfo<GridParam>& param_info) {
      return std::get<0>(param_info.param) + "_" +
             std::get<1>(param_info.param) + "_C" +
             std::to_string(static_cast<int>(std::get<2>(param_info.param)));
    });

}  // namespace
}  // namespace bevr::core
