#include "bevr/numerics/optimize.h"

#include <cmath>
#include <functional>
#include <stdexcept>

#include <gtest/gtest.h>

namespace bevr::numerics {
namespace {

TEST(GoldenSection, QuadraticPeak) {
  const auto result = golden_section_max(
      [](double x) { return -(x - 2.0) * (x - 2.0); }, 0.0, 5.0);
  EXPECT_NEAR(result.x, 2.0, 1e-8);
  EXPECT_NEAR(result.value, 0.0, 1e-15);
}

TEST(GoldenSection, PeakAtBoundary) {
  const auto result =
      golden_section_max([](double x) { return x; }, 0.0, 3.0);
  EXPECT_NEAR(result.x, 3.0, 1e-7);
}

TEST(GoldenSection, RejectsInvertedInterval) {
  EXPECT_THROW((void)golden_section_max([](double x) { return x; }, 1.0, 0.0),
               std::invalid_argument);
}

TEST(GoldenSection, NarrowStopsWhereTheFullSearchWouldContinue) {
  const auto f = [](double x) { return std::sin(x); };
  const auto full = golden_section_max(f, 0.0, 3.0, 1e-3);
  const auto narrow = golden_section_narrow(f, 0.0, 3.0, 1e-3);
  EXPECT_LE(narrow.b - narrow.a, 1e-3);
  EXPECT_LT(narrow.x1, narrow.x2);
  EXPECT_EQ(full.x, 0.5 * (narrow.a + narrow.b));
  EXPECT_EQ(full.evaluations, narrow.evaluations + 1);
}

// parabolic_max from the golden point of [lo, hi], as Brent starts.
MaxResult parabolic_from_golden(const std::function<double(double)>& f,
                                double lo, double hi) {
  const double x0 = lo + 0.3819660112501051 * (hi - lo);
  return parabolic_max(f, lo, hi, x0, f(x0), 1e-12);
}

TEST(Parabolic, MatchesClosedForms) {
  // −(x − 2)² + 3: peak 3 at 2. sin on [0, 3]: peak 1 at π/2.
  // x·e^{−x}: peak 1/e at 1.
  const auto quad = parabolic_from_golden(
      [](double x) { return 3.0 - (x - 2.0) * (x - 2.0); }, 0.0, 5.0);
  EXPECT_NEAR(quad.x, 2.0, 1e-7);
  EXPECT_NEAR(quad.value, 3.0, 1e-14);
  const auto sine =
      parabolic_from_golden([](double x) { return std::sin(x); }, 0.0, 3.0);
  EXPECT_NEAR(sine.x, 0.5 * std::acos(-1.0), 1e-7);
  EXPECT_NEAR(sine.value, 1.0, 1e-14);
  const auto gamma = parabolic_from_golden(
      [](double x) { return x * std::exp(-x); }, 0.0, 10.0);
  EXPECT_NEAR(gamma.x, 1.0, 1e-7);
  EXPECT_NEAR(gamma.value, std::exp(-1.0), 1e-15);
  // Superlinear on a smooth peak: far fewer probes than golden section.
  EXPECT_LT(sine.evaluations, 20);
}

TEST(Parabolic, KnownStartIsNotReevaluatedAndBoundaryPeaksHold) {
  int calls = 0;
  const auto f = [&calls](double x) {
    ++calls;
    return -(x - 1.0) * (x - 1.0);
  };
  const auto result = parabolic_max(f, 0.0, 4.0, 1.5, f(1.5), 1e-10);
  EXPECT_EQ(result.evaluations, calls - 1);
  EXPECT_NEAR(result.x, 1.0, 1e-7);
  // A monotone objective ends at the bracket edge.
  const auto rising =
      parabolic_from_golden([](double x) { return x; }, 0.0, 3.0);
  EXPECT_NEAR(rising.x, 3.0, 1e-7);
  EXPECT_THROW((void)parabolic_max(f, 0.0, 1.0, 2.0, 0.0, 1e-9),
               std::invalid_argument);
  EXPECT_THROW((void)parabolic_max(f, 1.0, 0.0, 0.5, 0.0, 1e-9),
               std::invalid_argument);
}

TEST(GridRefine, FindsGlobalPeakAmongLocalOnes) {
  // Two humps; the taller at x = 7.
  auto f = [](double x) {
    return std::exp(-(x - 2.0) * (x - 2.0)) +
           1.5 * std::exp(-(x - 7.0) * (x - 7.0));
  };
  const auto result = grid_refine_max(f, 0.0, 10.0, 256);
  EXPECT_NEAR(result.x, 7.0, 1e-5);
}

TEST(GridRefine, HandlesStepFunctions) {
  // Welfare objectives with rigid utilities are step functions; the
  // grid scan must still find (near) the top step.
  auto f = [](double x) { return std::floor(x) - 0.3 * x; };
  const auto result = grid_refine_max(f, 0.0, 10.0, 1024);
  // Max is just below x=10 jump... f(9.99...) ~ floor=9; check value.
  EXPECT_GE(result.value, 9.0 - 0.3 * 10.0 - 1e-6);
}

TEST(GridRefine, RejectsTooFewPoints) {
  EXPECT_THROW((void)grid_refine_max([](double x) { return x; }, 0.0, 1.0, 2),
               std::invalid_argument);
}

TEST(IntegerArgmax, SmallRangeScan) {
  const auto result = integer_argmax(
      [](std::int64_t k) {
        const double kd = static_cast<double>(k);
        return -(kd - 13.0) * (kd - 13.0);
      },
      0, 40);
  EXPECT_EQ(result.k, 13);
}

TEST(IntegerArgmax, LargeRangeTernary) {
  const auto result = integer_argmax(
      [](std::int64_t k) {
        const double kd = static_cast<double>(k);
        return kd * std::exp(-kd / 1'000'000.0);
      },
      1, 100'000'000);
  EXPECT_EQ(result.k, 1'000'000);
}

TEST(IntegerArgmax, FixedLoadShape) {
  // V(k) = k·π(C/k) for the paper's adaptive utility peaks at k ≈ C.
  const double capacity = 1000.0;
  const double kappa = 0.62086;
  auto v = [capacity, kappa](std::int64_t k) {
    const double b = capacity / static_cast<double>(k);
    return static_cast<double>(k) * (1.0 - std::exp(-b * b / (kappa + b)));
  };
  const auto result = integer_argmax(v, 1, 100'000);
  EXPECT_NEAR(static_cast<double>(result.k), capacity, 2.0);
}

TEST(IntegerArgmax, RisingPlateauThenDrop) {
  // V(k) = k for k <= 100, 0 beyond: the rigid fixed-load shape.
  const auto result = integer_argmax(
      [](std::int64_t k) { return k <= 100 ? static_cast<double>(k) : 0.0; },
      1, 1'000'000);
  EXPECT_EQ(result.k, 100);
}

TEST(IntegerArgmax, EmptyRangeThrows) {
  EXPECT_THROW(
      (void)integer_argmax([](std::int64_t) { return 0.0; }, 5, 4),
      std::invalid_argument);
}

}  // namespace
}  // namespace bevr::numerics
