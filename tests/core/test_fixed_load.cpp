#include "bevr/core/fixed_load.h"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include <gtest/gtest.h>

namespace bevr::core {
namespace {

TEST(TotalUtility, BasicValues) {
  const utility::Rigid rigid(1.0);
  EXPECT_EQ(total_utility(rigid, 100.0, 0), 0.0);
  EXPECT_EQ(total_utility(rigid, 100.0, 50), 50.0);   // each gets 2 ≥ 1
  EXPECT_EQ(total_utility(rigid, 100.0, 100), 100.0); // each gets exactly 1
  EXPECT_EQ(total_utility(rigid, 100.0, 101), 0.0);   // overload: all get < 1
  EXPECT_THROW((void)total_utility(rigid, 100.0, -1), std::invalid_argument);
}

TEST(KMax, RigidClosedForm) {
  const utility::Rigid rigid(1.0);
  EXPECT_EQ(*k_max(rigid, 100.0), 100);
  EXPECT_EQ(*k_max(rigid, 100.7), 100);
  EXPECT_EQ(*k_max(rigid, 1.0), 1);
  EXPECT_FALSE(k_max(rigid, 0.5).has_value());  // cannot serve even one

  const utility::Rigid rigid2(2.0);
  EXPECT_EQ(*k_max(rigid2, 100.0), 50);
}

TEST(KMax, PaperKappaMakesAdaptiveMatchRigid) {
  // The paper chose κ = 0.62086 precisely so k_max(C) = C.
  const utility::AdaptiveExp adaptive;
  for (const double c : {10.0, 50.0, 100.0, 200.0, 400.0, 1000.0}) {
    const auto k = k_max(adaptive, c);
    ASSERT_TRUE(k.has_value());
    EXPECT_NEAR(static_cast<double>(*k), c, std::max(1.0, 0.01 * c))
        << "C=" << c;
  }
}

TEST(KMax, AdaptiveArgmaxIsGenuine) {
  // V(k_max) must beat both neighbours.
  const utility::AdaptiveExp adaptive;
  const double c = 300.0;
  const auto k = *k_max(adaptive, c);
  const double at = total_utility(adaptive, c, k);
  EXPECT_GE(at, total_utility(adaptive, c, k - 1));
  EXPECT_GE(at, total_utility(adaptive, c, k + 1));
}

TEST(KMax, ElasticIsUnbounded) {
  // Strictly concave utilities have V(k) increasing: no finite argmax,
  // admission control never helps (paper §2).
  const utility::Elastic elastic;
  EXPECT_FALSE(k_max(elastic, 100.0).has_value());
}

TEST(KMax, PiecewiseLinearClosedForm) {
  const utility::PiecewiseLinear pwl(0.5);
  EXPECT_EQ(*k_max(pwl, 100.0), 100);
  EXPECT_EQ(*k_max(pwl, 33.9), 33);
}

TEST(KMax, RejectsNonPositiveCapacity) {
  const utility::Rigid rigid(1.0);
  EXPECT_THROW((void)k_max(rigid, 0.0), std::invalid_argument);
}

TEST(OptimalShare, RigidIsRequirement) {
  EXPECT_DOUBLE_EQ(optimal_share(utility::Rigid(1.0)), 1.0);
  EXPECT_DOUBLE_EQ(optimal_share(utility::Rigid(3.5)), 3.5);
}

TEST(OptimalShare, PiecewiseLinearIsKnee) {
  EXPECT_DOUBLE_EQ(optimal_share(utility::PiecewiseLinear(0.2)), 1.0);
}

TEST(OptimalShare, AdaptiveExpSolvesTangency) {
  // b* solves π'(b)b = π(b); with the paper's κ, b* = 1 by construction.
  const utility::AdaptiveExp adaptive;
  const double bstar = optimal_share(adaptive);
  EXPECT_NEAR(bstar, 1.0, 1e-3);
  // Verify the tangency condition numerically.
  const double h = 1e-6;
  const double deriv =
      (adaptive.value(bstar + h) - adaptive.value(bstar - h)) / (2.0 * h);
  EXPECT_NEAR(deriv * bstar, adaptive.value(bstar), 1e-5);
}

TEST(OptimalShare, AlgebraicTailClosedForm) {
  // b* = (r+1)^{1/r} (derived in §3.3 footnote analysis).
  for (const double r : {0.5, 1.0, 2.0, 4.0}) {
    const utility::AlgebraicTail pi(r);
    EXPECT_NEAR(optimal_share(pi), std::pow(r + 1.0, 1.0 / r), 1e-4)
        << "r=" << r;
  }
}

TEST(OptimalShare, ElasticThrows) {
  EXPECT_THROW((void)optimal_share(utility::Elastic{}), std::invalid_argument);
}

TEST(KMaxContinuum, ScalesLinearlyInCapacity) {
  const utility::AdaptiveExp adaptive;
  const double k100 = k_max_continuum(adaptive, 100.0);
  const double k200 = k_max_continuum(adaptive, 200.0);
  EXPECT_NEAR(k200 / k100, 2.0, 1e-9);
  EXPECT_THROW((void)k_max_continuum(adaptive, -1.0), std::invalid_argument);
}

// Property sweep: for every inelastic utility and a range of capacities,
// denying service beyond k_max strictly beats admitting everyone under
// heavy overload — the paper's §2 motivation for reservations.
struct FixedLoadCase {
  const char* name;
  double capacity;
};

// Print the case by name: gtest's default dumps the struct's bytes,
// which include the name pointer, so the test IDs changed from one
// test discovery to the next.
void PrintTo(const FixedLoadCase& c, std::ostream* os) { *os << c.name; }

class OverloadSweep : public ::testing::TestWithParam<FixedLoadCase> {};

TEST_P(OverloadSweep, AdmissionControlBeatsOverload) {
  const auto param = GetParam();
  const utility::AdaptiveExp adaptive;
  const utility::Rigid rigid(1.0);
  const auto overload =
      static_cast<std::int64_t>(param.capacity * 3.0);  // 3x overload
  for (const utility::UtilityFunction* pi :
       {static_cast<const utility::UtilityFunction*>(&adaptive),
        static_cast<const utility::UtilityFunction*>(&rigid)}) {
    const auto kmax = k_max(*pi, param.capacity);
    ASSERT_TRUE(kmax.has_value());
    EXPECT_GT(total_utility(*pi, param.capacity, *kmax),
              total_utility(*pi, param.capacity, overload))
        << pi->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, OverloadSweep,
                         ::testing::Values(FixedLoadCase{"small", 10.0},
                                           FixedLoadCase{"paper", 100.0},
                                           FixedLoadCase{"large", 1000.0}));

}  // namespace
}  // namespace bevr::core
