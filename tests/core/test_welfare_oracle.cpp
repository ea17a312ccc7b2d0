// The adaptive welfare rows against the long-double first-order oracle
// of series_oracle.h (DESIGN §2.4, the W(p), C(p) and γ(p) rows).
//
// For each row of fig{2,3,4}_welfare_adaptive, as run_scenario writes
// it, the oracle solves V′(C) = p by bisection: over the whole series
// for best effort, and for reservation inside each k_max piece within
// kPieces flows of the row's capacity, keeping the best piece. The
// bounds are the budget's:
//
//   noise = |V(C) − V*(C)| + 4u·V(C)   V's error at the row's capacity
//                                      plus the rounding of V − p·C
//   C:  |C − C*| ≤ (2·noise/|V″|)^½ + 2·(1.5e-8·C + 1e-9/3)
//   W:  |W − W*| ≤ noise + ½·|V″|·bound_C²
//   γ:  |γ − γ*| ≤ (bound_W_B(p) + bound_W_R(p̂))/(p·C*_R(p̂)) + 1e-10·γ
//
// The capacity of a flat objective is square-root conditioned, the
// parabolic refinement stops at the second term of C's bound, and W
// moves with the square of C's error; γ's last term is the bracketing
// Brent solve's tolerance (Newton's, 1e-13·p̂, is below it). γ* is one
// Newton step of W*_R(p̂) = W*_B(p) from the row's p̂ = γ·p, with the
// envelope slope −C*_R(p̂). Where best effort builds nothing, the row's
// best-effort columns must read exactly 0, and γ* = P(K ≥ 1)·max_b
// π(b)/b / p: V_R at one flow's share is π(b*)·P(K ≥ 1), a few
// roundings, so γ must match it within 8u.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bevr/core/variable_load.h"
#include "bevr/core/welfare.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/runner/result_sink.h"
#include "bevr/runner/runner.h"
#include "bevr/runner/scenario.h"
#include "bevr/utility/utility.h"
#include "series_oracle.h"

namespace bevr::core {
namespace {

using oracle::Real;

constexpr double kU = 0x1p-53;
// Reservation pieces tried on either side of the row's k_max: the
// maximiser refines within one fine step of its best fine point, up to
// ~6 flows' shares at the largest capacities here.
constexpr std::int64_t kPieces = 8;

oracle::LoadParams load_params(const runner::ScenarioSpec& spec,
                               const dist::DiscreteLoad& load) {
  switch (spec.load) {
    case runner::LoadFamily::kPoisson:
      return {oracle::LoadKind::kPoisson, spec.load_mean, 0.0};
    case runner::LoadFamily::kExponential:
      return {oracle::LoadKind::kExponential,
              dynamic_cast<const dist::ExponentialLoad&>(load).beta(), 0.0};
    case runner::LoadFamily::kAlgebraic:
      return {oracle::LoadKind::kAlgebraic,
              dynamic_cast<const dist::AlgebraicLoad&>(load).lambda(),
              spec.load_param};
    default:
      throw std::invalid_argument("no oracle for this load family");
  }
}

/// The best of the reservation pieces within kPieces flows of k_max at
/// the guess.
oracle::SeriesOracle::Optimum reservation_reference(
    const oracle::SeriesOracle& o, double price, double guess) {
  const std::int64_t m0 = o.k_max(guess);
  const std::int64_t first = std::max<std::int64_t>(1, m0 - kPieces);
  std::vector<oracle::SeriesOracle::Optimum> pieces;
  std::size_t best = 0;
  for (std::int64_t m = first; m <= m0 + kPieces; ++m) {
    const double piece_guess = guess * static_cast<double>(m) /
                               static_cast<double>(m0);
    pieces.push_back(o.reservation_optimum(price, m, piece_guess));
    if (pieces.back().welfare > pieces[best].welfare) best = pieces.size() - 1;
  }
  // A range whose end piece beats its neighbour may cut off better
  // pieces beyond it. Near-ties do not count: where P(K > m) is below
  // 1e-18, the pieces differ by less than the bounds can see.
  const auto beats = [](const auto& a, const auto& b) {
    return a.welfare > b.welfare * (1.0L + 1e-18L);
  };
  EXPECT_FALSE(first > 1 && beats(pieces[0], pieces[1]));
  EXPECT_FALSE(beats(pieces.back(), pieces[pieces.size() - 2]));
  return pieces[best];
}

/// The budget of one maximisation, around the row's (C, W).
struct Budget {
  double capacity = 0.0;
  double welfare = 0.0;
};

Budget budget(double capacity, double v_error, double v,
              const oracle::SeriesOracle::Optimum& ref) {
  const double noise = v_error + 4.0 * kU * v;
  const auto v2 = static_cast<double>(ref.curvature);
  const double c_bound = std::sqrt(2.0 * noise / v2) +
                         2.0 * (1.5e-8 * capacity + 1e-9 / 3.0);
  return {c_bound, noise + 0.5 * v2 * c_bound * c_bound};
}

void check_scenario(const std::string& name) {
  SCOPED_TRACE(name);
  const auto* spec = runner::ScenarioRegistry::builtin().find(name);
  ASSERT_NE(spec, nullptr);
  runner::VectorSink sink;
  (void)runner::run_scenario(*spec, runner::RunOptions{}, sink);

  const auto load = runner::make_load(*spec);
  const auto model = std::make_shared<VariableLoadModel>(
      load, runner::make_utility(*spec), spec->eval);
  const WelfareAnalysis analysis(
      [model](double c) { return model->total_best_effort(c); },
      [model](double c) { return model->total_reservation(c); },
      model->mean_load());
  const oracle::SeriesOracle o(
      load_params(*spec, *load),
      {oracle::UtilKind::kAdaptive, utility::AdaptiveExp::kPaperKappa});
  const auto v_r = [&o](double c) {
    return o.total_reservation_at(c, o.k_max(c));
  };

  for (const auto& row : sink.rows()) {
    const double p = row.values[0];
    const double c_b = row.values[1];
    const double c_r = row.values[2];
    const double w_b = row.values[3];
    const double w_r = row.values[4];
    const double gamma = row.values[5];
    SCOPED_TRACE("p=" + std::to_string(p));

    // Reservation at p.
    const auto ref_r = reservation_reference(o, p, c_r);
    const double vr = model->total_reservation(c_r);
    const Budget budget_r = budget(
        c_r, std::fabs(vr - static_cast<double>(v_r(c_r))), vr, ref_r);
    EXPECT_LE(std::fabs(c_r - ref_r.capacity), budget_r.capacity);
    EXPECT_LE(std::fabs(w_r - static_cast<double>(ref_r.welfare)),
              budget_r.welfare);

    if (w_b == 0.0) {
      // Best effort builds nothing; γ is the shutdown price's ratio.
      EXPECT_EQ(c_b, 0.0);
      const Real shutdown = o.busy_probability() * o.best_share_value();
      const auto expected = static_cast<double>(std::max(1.0L, shutdown / p));
      EXPECT_NEAR(gamma, expected, 8.0 * kU * expected);
      continue;
    }

    // Best effort at p.
    const auto ref_b = o.best_effort_optimum(p, c_b);
    const double vb = model->total_best_effort(c_b);
    const Budget budget_b = budget(
        c_b,
        std::fabs(vb - static_cast<double>(o.total_best_effort(c_b))), vb,
        ref_b);
    EXPECT_LE(std::fabs(c_b - ref_b.capacity), budget_b.capacity);
    EXPECT_LE(std::fabs(w_b - static_cast<double>(ref_b.welfare)),
              budget_b.welfare);

    // γ: one Newton step of W*_R(p̂) = W*_B(p) from the row's p̂.
    const double p_hat = gamma * p;
    const double c_hat = analysis.reservation(p_hat).capacity;
    const auto ref_hat = reservation_reference(o, p_hat, c_hat);
    const double v_hat = model->total_reservation(c_hat);
    const Budget budget_hat = budget(
        c_hat, std::fabs(v_hat - static_cast<double>(v_r(c_hat))), v_hat,
        ref_hat);
    const Real slope = static_cast<Real>(ref_hat.capacity) * p;
    const auto gamma_star = static_cast<double>(
        static_cast<Real>(gamma) + (ref_hat.welfare - ref_b.welfare) / slope);
    const double gamma_bound =
        (budget_b.welfare + budget_hat.welfare) / static_cast<double>(slope) +
        1e-10 * gamma;
    EXPECT_LE(std::fabs(gamma - gamma_star), gamma_bound);
  }
}

TEST(WelfareOracle, Fig2AdaptiveRowsMeetBudget) {
  check_scenario("fig2_welfare_adaptive");
}

TEST(WelfareOracle, Fig3AdaptiveRowsMeetBudget) {
  check_scenario("fig3_welfare_adaptive");
}

TEST(WelfareOracle, Fig4AdaptiveRowsMeetBudget) {
  check_scenario("fig4_welfare_adaptive");
}

}  // namespace
}  // namespace bevr::core
