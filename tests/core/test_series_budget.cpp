// The variable-load series against its error budget (DESIGN §2.4).
//
// B, R, δ and Δ's residual from the scalar model and from the kernel
// are checked against the long-double oracle of series_oracle.h, each
// within the bound the budget derives for that point: per-term
// rounding (all terms are positive, so the sum's relative error is at
// most the worst term's), Neumaier summation, the division by k̄, the
// tail quadrature's tolerance, the Euler–Maclaurin remainder of the
// corrected tail, and what truncation at k_exact leaves out.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bevr/core/series_tail.h"
#include "bevr/core/variable_load.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/poisson.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/runner/scenario.h"
#include "bevr/utility/utility.h"
#include "series_oracle.h"

namespace bevr::core {
namespace {

using oracle::LoadKind;
using oracle::Real;
using oracle::UtilKind;

constexpr double kU = 0x1p-53;     // unit roundoff of double
constexpr double kULd = 0x1p-64;   // unit roundoff of long double
constexpr double kTailTol = 0x1p-55;  // series_tail's tolerance / head

/// One load × utility pairing, in the library and in the oracle.
struct Pairing {
  std::string label;
  std::shared_ptr<const dist::DiscreteLoad> load;
  std::shared_ptr<const utility::UtilityFunction> pi;
  oracle::LoadParams load_params;
  oracle::UtilParams util_params;
};

Pairing algebraic(double z, double mean, UtilKind util = UtilKind::kAdaptive) {
  const auto load =
      std::make_shared<dist::AlgebraicLoad>(dist::AlgebraicLoad::with_mean(z, mean));
  return {"algebraic(z=" + std::to_string(z) + ", mean=" + std::to_string(mean) + ")",
          load, nullptr, {LoadKind::kAlgebraic, load->lambda(), z}, {util, 0.0}};
}

Pairing exponential(double mean) {
  const auto load = std::make_shared<dist::ExponentialLoad>(
      dist::ExponentialLoad::with_mean(mean));
  return {"exponential(mean=" + std::to_string(mean) + ")", load, nullptr,
          {LoadKind::kExponential, load->beta(), 0.0}, {UtilKind::kAdaptive, 0.0}};
}

Pairing poisson(double mean) {
  return {"poisson(mean=" + std::to_string(mean) + ")",
          std::make_shared<dist::PoissonLoad>(mean), nullptr,
          {LoadKind::kPoisson, mean, 0.0}, {UtilKind::kAdaptive, 0.0}};
}

/// Attach the utility named by util_params (adaptive at the paper's κ).
Pairing with_utility(Pairing s) {
  switch (s.util_params.kind) {
    case UtilKind::kAdaptive:
      s.util_params.param = utility::AdaptiveExp::kPaperKappa;
      s.pi = std::make_shared<utility::AdaptiveExp>();
      break;
    case UtilKind::kElastic:
      s.pi = std::make_shared<utility::Elastic>();
      break;
    case UtilKind::kRigid:
      s.util_params.param = 1.0;
      s.pi = std::make_shared<utility::Rigid>(1.0);
      break;
  }
  return s;
}

/// Relative rounding bound, in units of u, of the load's pmf (and tail)
/// at every k up to k_top, and of its mean.
struct LoadUlps {
  double term = 0.0;
  double mean = 0.0;
};

LoadUlps load_ulps(const Pairing& s, std::int64_t k_top) {
  const double kd = static_cast<double>(k_top);
  switch (s.load_params.kind) {
    case LoadKind::kAlgebraic: {
      // pow(λ + k, −z)/ζ(z, λ+1): λ + k amplified by z, pow, the
      // division, and the Hurwitz zeta's (z + 3)u; tail_above divides
      // two zetas. k̄ = ζ(z−1, q)/ζ(z, q) − λ cancels by (k̄ + λ)/k̄.
      const double z = s.load_params.z;
      const double lambda = s.load_params.param;
      const double mean = s.load->mean();
      return {2.0 * z + 7.0, (mean + lambda) / mean * (2.0 * z + 6.0) + 1.0};
    }
    case LoadKind::kExponential:
      // (1 − e^{−β})·e^{−βk}: the exponent's rounding is βk·u.
      return {s.load_params.param * kd + 4.0, 2.0};
    case LoadKind::kPoisson: {
      // exp(k·ln ν − ν − lgamma(k + 1)): the exponent's absolute
      // rounding, plus the tail recurrence's.
      const double nu = s.load_params.param;
      return {3.0 * kd * std::log(nu) + nu + 3.0 * std::lgamma(kd + 1.0) + 1025.0,
              0.0};
    }
  }
  return {};
}

/// Relative rounding bound of π(C/k), in units of u: the share, the
/// formula's operations (adaptive: b², κ + b, the quotient, amplified
/// at most 2× through b²), expm1.
double utility_ulps(const Pairing& s) {
  switch (s.util_params.kind) {
    case UtilKind::kAdaptive: return 6.0;
    case UtilKind::kElastic: return 2.0;
    case UtilKind::kRigid: return 0.0;
  }
  return 0.0;
}

/// The library model a Pairing is evaluated through.
struct Evaluators {
  std::shared_ptr<const VariableLoadModel> model;
  std::unique_ptr<kernels::SweepEvaluator> kernel;
};

Evaluators evaluators(const Pairing& s, VariableLoadModel::Options options) {
  Evaluators e;
  e.model = std::make_shared<VariableLoadModel>(s.load, s.pi, options);
  e.kernel = std::make_unique<kernels::SweepEvaluator>(e.model);
  return e;
}

/// The B(C) bound: per-term, summation and division rounding relative
/// to B, plus the tail quadrature's tolerance and Euler–Maclaurin
/// remainder when the series goes hybrid, or what truncation at
/// k_exact drops when it does not, plus the oracle's own error.
double budget_b(const Pairing& s, const oracle::SeriesOracle& o,
                const VariableLoadModel& model, double capacity, Real b_true) {
  const auto& options = model.options();
  const std::int64_t k_lo = std::max<std::int64_t>(1, s.load->min_support());
  const std::int64_t k_exact = s.load->truncation_point(options.tail_eps);
  std::int64_t k_hi = k_exact;
  if (s.pi->zero_below() > 0.0) {
    k_hi = std::min(k_hi, static_cast<std::int64_t>(
                              std::floor(capacity / s.pi->zero_below())) + 1);
  }
  const bool hybrid = k_hi - k_lo + 1 > options.direct_budget;
  const LoadUlps load = load_ulps(s, k_exact);
  // pmf·k and ·π: 2u; Neumaier: 2u plus slack; ÷ k̄: 1u.
  const double rel = (load.term + utility_ulps(s) + 6.0 + load.mean) * kU;
  double bound = rel * static_cast<double>(b_true);
  if (hybrid) {
    const std::int64_t k_direct =
        k_lo + hybrid_head_terms(*s.pi, options.direct_budget) - 1;
    // The quadrature's tolerance, plus its Kronrod table's weights,
    // printed to 15 digits: up to 1.1e-14 of the tail they integrate.
    bound += kTailTol * static_cast<double>(b_true) +
             1.1e-14 * static_cast<double>(
                           b_true - o.best_effort_through(capacity, k_direct));
    if (s.pi->smooth()) {
      // Past the (1/24)·f′ and (7/5760)·f‴ corrections: the next
      // Euler–Maclaurin term, (31/967680)·f⁽⁵⁾, plus the stencils'
      // (2/5760)·f⁽⁵⁾.
      const Real a = static_cast<Real>(k_direct) + 0.5L;
      bound += 367.0 / 967680.0 *
               std::fabs(static_cast<double>(o.term_fifth_derivative(capacity, a)));
    }
  } else if (k_hi == k_exact) {
    bound += static_cast<double>(b_true - o.best_effort_through(capacity, k_exact));
  }
  return bound + 64.0 * kULd * static_cast<double>(b_true);
}

/// The R(C) bound: the same rounding over every term up to k_max + 1
/// (the tail mass), plus what a head truncated at k_exact < k_max drops.
double budget_r(const Pairing& s, const oracle::SeriesOracle& o,
                const VariableLoadModel& model, double capacity, Real r_true) {
  const std::int64_t k_exact =
      s.load->truncation_point(model.options().tail_eps);
  const std::int64_t kmax = o.k_max(capacity);
  if (kmax < 0) return budget_b(s, o, model, capacity, r_true);
  const LoadUlps load = load_ulps(s, std::max(k_exact, kmax + 1));
  // Head products and sum as for B; tail term k·π·P: 2u; + and ÷: 2u.
  const double rel = (load.term + utility_ulps(s) + 8.0 + load.mean) * kU;
  double bound = rel * static_cast<double>(r_true);
  if (kmax > k_exact) {
    bound += static_cast<double>(o.best_effort_through(capacity, kmax) -
                                 o.best_effort_through(capacity, k_exact));
  }
  return bound + 64.0 * kULd * static_cast<double>(r_true);
}

/// Check B, R and δ at one capacity through both evaluators; with_gap
/// also checks Δ's residual B(C + Δ) − R(C) against the oracle, bound by
/// the B and R budgets plus Brent's abscissa tolerance (1e-9 + 1e-10·Δ)
/// times B′ ≤ sup π′/k̄ ≤ 1/k̄.
void check_point(const Pairing& s, const oracle::SeriesOracle& o,
                 const Evaluators& e, double capacity, bool with_gap) {
  SCOPED_TRACE(s.label + " C=" + std::to_string(capacity));
  const Real b_true = o.best_effort(capacity);
  const Real r_true = o.reservation(capacity);
  const double b_bound = budget_b(s, o, *e.model, capacity, b_true);
  const double r_bound = budget_r(s, o, *e.model, capacity, r_true);

  const double b = e.model->best_effort(capacity);
  const double r = e.model->reservation(capacity);
  EXPECT_LE(std::fabs(static_cast<double>(b - b_true)), b_bound)
      << "B=" << b << " oracle " << static_cast<double>(b_true);
  EXPECT_LE(std::fabs(static_cast<double>(r - r_true)), r_bound)
      << "R=" << r << " oracle " << static_cast<double>(r_true);
  EXPECT_LE(std::fabs(static_cast<double>(e.model->performance_gap(capacity) -
                                          (r_true - b_true))),
            b_bound + r_bound);
  EXPECT_EQ(e.kernel->best_effort(capacity), b);
  EXPECT_EQ(e.kernel->reservation(capacity), r);
  EXPECT_EQ(e.kernel->performance_gap(capacity),
            e.model->performance_gap(capacity));
  if (!with_gap) return;

  const double gap = e.model->bandwidth_gap(capacity);
  EXPECT_EQ(e.kernel->bandwidth_gap(capacity, b, r), gap);
  ASSERT_TRUE(std::isfinite(gap));
  const Real b_at_gap = o.best_effort(capacity + gap);
  const double residual = static_cast<double>(b_at_gap - r_true);
  const double solver = (1e-9 + 1e-10 * gap) / e.model->mean_load();
  EXPECT_LE(std::fabs(residual),
            budget_b(s, o, *e.model, capacity + gap, b_at_gap) + r_bound +
                solver)
      << "Delta=" << gap;
}

oracle::SeriesOracle make_oracle(const Pairing& s) {
  return oracle::SeriesOracle(s.load_params, s.util_params);
}

TEST(SeriesBudget, HeavyTailPointsMeetBudget) {
  // The points where the unit-scale tail map went wrong: z from close
  // to 2 to 4, C from 10 to 10⁴, k̄ = 100.
  for (const double z : {2.2, 2.5, 3.0, 4.0}) {
    const Pairing s = with_utility(algebraic(z, 100.0));
    const oracle::SeriesOracle o = make_oracle(s);
    const Evaluators e = evaluators(s, {});
    for (const double c : {10.0, 100.0, 400.0, 2700.0, 1e4}) {
      check_point(s, o, e, c, /*with_gap=*/c <= 400.0);
    }
  }
}

TEST(SeriesBudget, Fig4GridMeetsBudget) {
  const runner::ScenarioSpec& spec =
      *runner::ScenarioRegistry::builtin().find("fig4_adaptive");
  const auto load = std::dynamic_pointer_cast<const dist::AlgebraicLoad>(
      runner::make_load(spec));
  ASSERT_NE(load, nullptr);
  const Pairing s = with_utility(algebraic(load->z(), 100.0));
  ASSERT_EQ(s.load_params.param, load->lambda());
  const oracle::SeriesOracle o = make_oracle(s);
  const Evaluators e = evaluators(s, spec.eval);
  const std::vector<double> grid = spec.grid.values();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    check_point(s, o, e, grid[i], /*with_gap=*/i % 4 == 0);
  }
  // The welfare panel's options: a shorter table, a looser truncation.
  const runner::ScenarioSpec& welfare =
      *runner::ScenarioRegistry::builtin().find("fig4_welfare_adaptive");
  const Evaluators w = evaluators(s, welfare.eval);
  for (const double c : {10.0, 300.0, 2700.0, 1e4}) {
    check_point(s, o, w, c, /*with_gap=*/false);
  }
}

TEST(SeriesBudget, RandomLoadsMeetBudget) {
  // Seeded draws over the three load families: z ∈ [2.2, 4],
  // k̄ ∈ [50, 200], C log-uniform in [10, 10⁴]; algebraic loads also
  // under the elastic and rigid utilities.
  std::mt19937_64 rng(20260419);
  std::uniform_real_distribution<double> z_dist(2.2, 4.0);
  std::uniform_real_distribution<double> mean_dist(50.0, 200.0);
  std::uniform_real_distribution<double> log_c(1.0, 4.0);
  const auto capacity = [&rng, &log_c] { return std::pow(10.0, log_c(rng)); };
  std::vector<Pairing> setups;
  for (int i = 0; i < 3; ++i) {
    setups.push_back(with_utility(algebraic(z_dist(rng), mean_dist(rng))));
  }
  setups.push_back(
      with_utility(algebraic(z_dist(rng), mean_dist(rng), UtilKind::kElastic)));
  setups.push_back(
      with_utility(algebraic(z_dist(rng), mean_dist(rng), UtilKind::kRigid)));
  for (int i = 0; i < 2; ++i) {
    setups.push_back(with_utility(exponential(mean_dist(rng))));
    setups.push_back(with_utility(poisson(mean_dist(rng))));
  }
  for (const Pairing& s : setups) {
    const oracle::SeriesOracle o = make_oracle(s);
    const Evaluators e = evaluators(s, {});
    for (int j = 0; j < 3; ++j) {
      // Rigid k_max is ⌊C⌋: keep C off the integers' rounding edge.
      const double c = s.util_params.kind == UtilKind::kRigid
                           ? std::round(capacity())
                           : capacity();
      check_point(s, o, e, c, /*with_gap=*/j == 0 && c <= 2000.0);
    }
  }
}

TEST(VariableLoadModel, HybridTailMatchesDirectSummation) {
  // A 2048-term direct budget forces the hybrid path on the algebraic
  // load; the oracle's 2^18-term direct sum is the reference, and the
  // tolerance is the point's budget.
  const Pairing s = with_utility(algebraic(3.0, 100.0));
  const oracle::SeriesOracle o = make_oracle(s);
  VariableLoadModel::Options small_budget;
  small_budget.direct_budget = 2048;
  const Evaluators e = evaluators(s, small_budget);
  for (const double c : {50.0, 100.0, 400.0}) {
    check_point(s, o, e, c, /*with_gap=*/false);
  }
}

}  // namespace
}  // namespace bevr::core
