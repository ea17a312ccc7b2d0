#include "bevr/core/welfare.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bevr/numerics/optimize.h"
#include "bevr/numerics/roots.h"

namespace bevr::core {

WelfarePoint maximize_welfare(
    const std::function<double(double)>& total_utility, double price,
    double scale_hint, int grid_points) {
  return maximize_welfare(total_utility, numerics::GridEvalFn{}, price,
                          scale_hint, grid_points);
}

WelfarePoint maximize_welfare(
    const std::function<double(double)>& total_utility,
    const numerics::GridEvalFn& total_utility_grid, double price,
    double scale_hint, int grid_points) {
  if (!(price > 0.0)) {
    throw std::invalid_argument("maximize_welfare: price must be > 0");
  }
  if (!(scale_hint > 0.0)) {
    throw std::invalid_argument("maximize_welfare: scale_hint must be > 0");
  }
  auto objective = [&total_utility, price](double c) {
    const double v = total_utility(c);
    return std::isfinite(v) ? v - price * c
                            : -std::numeric_limits<double>::infinity();
  };
  // Expand the upper search bound until the objective is declining at
  // the boundary (checking hi against 0.9·hi catches optima between
  // hi and 2·hi that a hi-vs-2·hi comparison would miss). The boundary
  // value is carried across doublings instead of re-evaluated — the
  // expansion costs one objective call per step, not two.
  double hi = 4.0 * scale_hint;
  double at_hi = objective(hi);
  constexpr double kHardCap = 1e10;
  while (hi < kHardCap && at_hi >= objective(0.9 * hi)) {
    hi *= 2.0;
    at_hi = objective(hi);
  }
  numerics::MaxResult best;
  if (total_utility_grid) {
    // Batch the scan stage. The objective arithmetic applied to the
    // batched V values is the exact expression `objective` uses, so
    // the scan sees the identical doubles in the identical order.
    auto objective_grid = [&total_utility_grid, price](
                              double lo, double grid_hi, int n,
                              std::span<double> out) {
      total_utility_grid(lo, grid_hi, n, out);
      const double step = (grid_hi - lo) / (n - 1);
      for (int i = 0; i < n; ++i) {
        const double v = out[static_cast<std::size_t>(i)];
        out[static_cast<std::size_t>(i)] =
            std::isfinite(v) ? v - price * (lo + step * i)
                             : -std::numeric_limits<double>::infinity();
      }
    };
    best = numerics::grid_refine_max(objective, objective_grid, 0.0, hi,
                                     grid_points, 1e-9);
  } else {
    best = numerics::grid_refine_max(objective, 0.0, hi, grid_points, 1e-9);
  }
  if (best.value <= 0.0) return {0.0, 0.0};  // building nothing is optimal
  return {best.x, best.value};
}

double equalizing_price_ratio(
    const std::function<double(double)>& welfare_best_effort,
    const std::function<double(double)>& welfare_reservation, double price) {
  if (!(price > 0.0)) {
    throw std::invalid_argument("equalizing_price_ratio: price must be > 0");
  }
  const double target = welfare_best_effort(price);
  auto deficit = [&welfare_reservation, target](double p_hat) {
    return welfare_reservation(p_hat) - target;
  };
  const double at_p = deficit(price);
  if (at_p <= 0.0) return 1.0;  // W_R(p) ≤ W_B(p) can only mean equality
  // W_R is nonincreasing: expand upward until it falls to the target.
  double hi = 2.0 * price;
  double at_hi = deficit(hi);
  constexpr double kHardCap = 1e12;
  while (at_hi > 0.0) {
    hi *= 2.0;
    if (hi / price > kHardCap) {
      return std::numeric_limits<double>::infinity();
    }
    at_hi = deficit(hi);
  }
  const auto root = numerics::brent(deficit, {price, hi, at_p, at_hi},
                                    {.x_tol = 1e-14, .x_rtol = 1e-10,
                                     .f_tol = 0.0, .max_iterations = 200});
  return root.x / price;
}

WelfareAnalysis::WelfareAnalysis(std::function<double(double)> v_best_effort,
                                 std::function<double(double)> v_reservation,
                                 double scale_hint)
    : WelfareAnalysis(std::move(v_best_effort), std::move(v_reservation),
                      numerics::GridEvalFn{}, numerics::GridEvalFn{},
                      scale_hint) {}

WelfareAnalysis::WelfareAnalysis(std::function<double(double)> v_best_effort,
                                 std::function<double(double)> v_reservation,
                                 numerics::GridEvalFn v_best_effort_grid,
                                 numerics::GridEvalFn v_reservation_grid,
                                 double scale_hint)
    : v_b_(std::move(v_best_effort)),
      v_r_(std::move(v_reservation)),
      vg_b_(std::move(v_best_effort_grid)),
      vg_r_(std::move(v_reservation_grid)),
      scale_(scale_hint) {
  if (!v_b_ || !v_r_) {
    throw std::invalid_argument("WelfareAnalysis: null utility callables");
  }
  if (!(scale_hint > 0.0)) {
    throw std::invalid_argument("WelfareAnalysis: scale_hint must be > 0");
  }
}

WelfarePoint WelfareAnalysis::best_effort(double price) const {
  return maximize_welfare(v_b_, vg_b_, price, scale_);
}

WelfarePoint WelfareAnalysis::reservation(double price) const {
  return maximize_welfare(v_r_, vg_r_, price, scale_);
}

double WelfareAnalysis::price_ratio(double price) const {
  auto wb = [this](double p) { return best_effort(p).welfare; };
  auto wr = [this](double p) { return reservation(p).welfare; };
  return equalizing_price_ratio(wb, wr, price);
}

}  // namespace bevr::core
