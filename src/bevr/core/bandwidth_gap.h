// The bandwidth gap Δ(C), solving R(C) = B(C + Δ) (paper §3.1): the
// extra capacity best effort needs to match reservations. Every model
// that reports Δ solves it with this one search.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>

#include "bevr/numerics/roots.h"

namespace bevr::core {

/// One model's Δ search: the first bracket end, doubled until the
/// deficit turns nonnegative, and Brent's abscissa tolerances (by
/// default those of the discrete model and its kernel).
struct GapSearch {
  double first_step = 1.0;
  double x_tol = 1e-9;
  double x_rtol = 1e-10;
};

/// Root Δ ≥ 0 of a nondecreasing `deficit`, given at_zero = deficit(0),
/// which the caller already holds. The bracket [0, hi] goes to Brent
/// with its end values, so no point is evaluated twice. Returns 0 when
/// at_zero >= 0, and +inf when the deficit stays negative up to 1e12.
inline double solve_gap(const std::function<double(double)>& deficit,
                        double at_zero, const GapSearch& search) {
  if (at_zero >= 0.0) return 0.0;
  double hi = search.first_step;
  double at_hi = deficit(hi);
  while (at_hi < 0.0) {
    hi *= 2.0;
    if (hi > 1e12) return std::numeric_limits<double>::infinity();
    at_hi = deficit(hi);
  }
  const auto root = numerics::brent(
      deficit, {0.0, hi, at_zero, at_hi},
      {.x_tol = search.x_tol, .x_rtol = search.x_rtol, .f_tol = 0.0,
       .max_iterations = 200});
  return std::max(0.0, root.x);
}

/// Δ with best_effort(capacity + Δ) = target, for a nondecreasing
/// best_effort and the caller's b_at_capacity = best_effort(capacity).
inline double bandwidth_gap(const std::function<double(double)>& best_effort,
                            double capacity, double b_at_capacity,
                            double target, const GapSearch& search) {
  return solve_gap(
      [&best_effort, capacity, target](double delta) {
        return best_effort(capacity + delta) - target;
      },
      b_at_capacity - target, search);
}

}  // namespace bevr::core
