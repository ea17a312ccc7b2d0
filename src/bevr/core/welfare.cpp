#include "bevr/core/welfare.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bevr/numerics/optimize.h"
#include "bevr/numerics/roots.h"
#include "bevr/obs/metrics.h"

namespace bevr::core {

namespace {

// The smooth path scans every kCoarseStride-th point of the fine grid
// (511 = 7·73 at the default 512 points), so coarse points are fine
// points: the cell scans and any full scan of the same grid share
// their memo entries.
constexpr int kCoarseStride = 7;
// The refinement's golden steps stop at this bracket width, in fine
// steps, and hand over to parabolic interpolation.
constexpr double kGoldenWidth = 1.0 / 64.0;
// Relative offset of the two probes that tell a step utility from a
// smooth one (see maximize below).
constexpr double kFlatProbe = 1e-7;
// Newton on γ stops once a step moves p̂ by less than this, relatively.
constexpr double kNewtonStep = 1e-13;
constexpr int kMaxNewtonSteps = 64;
// Above this ratio p̂/p, γ is reported as +inf.
constexpr double kRatioCap = 1e12;
// The shutdown price p̂* = sup V_R(C)/C is maximised over ln C in
// [kShutdownLo·scale, 4·scale]: kShutdownCoarse points, then, for a
// step V_R, kShutdownFine and a bisection to kShutdownLogTol in ln C.
constexpr double kShutdownLo = 1e-4;
constexpr int kShutdownCoarse = 128;
constexpr int kShutdownFine = 4096;
constexpr double kShutdownLogTol = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct WelfareCounters {
  obs::Counter maximisations;
  obs::Counter flat_fallbacks;
  obs::Counter newton_steps;
  obs::Counter brent_fallbacks;
};

const WelfareCounters& counters() {
  static const WelfareCounters c = [] {
    auto& registry = obs::MetricsRegistry::global();
    return WelfareCounters{registry.counter("core/welfare/maximisations"),
                           registry.counter("core/welfare/flat_fallbacks"),
                           registry.counter("core/welfare/gamma_newton_steps"),
                           registry.counter("core/welfare/gamma_brent_fallbacks")};
  }();
  return c;
}

/// A maximisation's result and the path it took.
struct Maximum {
  WelfarePoint point;
  bool flat = false;  ///< V looked piecewise constant: full scan + golden
};

// Bitwise equality, with every non-finite value alike (the objective
// maps them all to −inf).
bool same_value(double a, double b) {
  return a == b || (!std::isfinite(a) && !std::isfinite(b));
}

// Whether V, worth v at x, is constant on one side of x: a smooth V
// moves by about V′·x·kFlatProbe, far above one ulp of V wherever V′ is
// not tiny; a step utility does not move at all on at least one side. A
// −inf (infeasible) region compares equal as well.
bool flat_at(const std::function<double(double)>& total_utility, double x,
             double v) {
  return same_value(total_utility(x * (1.0 - kFlatProbe)), v) ||
         same_value(total_utility(x * (1.0 + kFlatProbe)), v);
}

Maximum maximize(const std::function<double(double)>& total_utility,
                 const numerics::GridEvalFn& total_utility_grid, double price,
                 double scale_hint, int grid_points) {
  if (!(price > 0.0)) {
    throw std::invalid_argument("maximize_welfare: price must be > 0");
  }
  if (!(scale_hint > 0.0)) {
    throw std::invalid_argument("maximize_welfare: scale_hint must be > 0");
  }
  if (grid_points < 3) {
    throw std::invalid_argument("maximize_welfare: need >= 3 grid points");
  }
  counters().maximisations.inc();
  auto objective_of = [price](double c, double v) {
    return std::isfinite(v) ? v - price * c
                            : -std::numeric_limits<double>::infinity();
  };
  auto objective = [&total_utility, &objective_of](double c) {
    return objective_of(c, total_utility(c));
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

  // Piecewise-constant V: the full scan and golden section, whose
  // results the step-utility goldens pin bit for bit.
  const double lo = 0.0;
  auto flat_maximum = [&]() -> Maximum {
    counters().flat_fallbacks.inc();
    numerics::MaxResult best;
    if (total_utility_grid) {
      // Batch the scan stage. The objective arithmetic applied to the
      // batched V values is the exact expression `objective` uses, so
      // the scan sees the identical doubles in the identical order.
      auto objective_grid = [&total_utility_grid, &objective_of](
                                double grid_lo, double grid_hi, int n,
                                std::span<double> out) {
        total_utility_grid(grid_lo, grid_hi, n, out);
        const double grid_step = (grid_hi - grid_lo) / (n - 1);
        for (int i = 0; i < n; ++i) {
          auto& value = out[static_cast<std::size_t>(i)];
          value = objective_of(grid_lo + grid_step * i, value);
        }
      };
      best = numerics::grid_refine_max(objective, objective_grid, lo, hi,
                                       grid_points, 1e-9);
    } else {
      best = numerics::grid_refine_max(objective, lo, hi, grid_points, 1e-9);
    }
    if (best.value <= 0.0) return {{0.0, 0.0}, true};
    return {{best.x, best.value}, true};
  };

  // Flatness probe at the capacity scale, before any scan: the load
  // sits there, so a smooth V′ is far from 0. Its three capacities are
  // the same at every price, so a memoized V pays for them once.
  const double at_scale = total_utility(scale_hint);
  const bool scale_feasible = std::isfinite(at_scale);
  if (scale_feasible && flat_at(total_utility, scale_hint, at_scale)) {
    return flat_maximum();
  }

  // The fine grid is the scan grid_refine_max would use: x_j = lo +
  // step·j, the same expression, so each x_j is the same double.
  const double step = (hi - lo) / (grid_points - 1);
  const int last = grid_points - 1;
  auto fine_x = [lo, step](int j) { return lo + step * j; };
  auto coarse = [last](int j) { return j % kCoarseStride == 0 || j == last; };

  // Coarse scan: every kCoarseStride-th fine point, plus the last.
  // i = 0 seeds, strict > advances, as in grid_refine_max.
  int best_j = 0;
  double best_u = total_utility(fine_x(0));
  double best_v = objective_of(fine_x(0), best_u);
  for (int j = 1; j <= last; ++j) {
    if (!coarse(j)) continue;
    const double u = total_utility(fine_x(j));
    const double v = objective_of(fine_x(j), u);
    if (v > best_v) {
      best_j = j;
      best_u = u;
      best_v = v;
    }
  }

  // V is −inf (infeasible) at the capacity scale: probe next to the
  // winning coarse point instead, or next to the first coarse point past
  // C = 0 when building nothing wins. Near the optimum V′ ≈ p, so a
  // smooth V cannot look flat there; a −inf region looks flat.
  if (!scale_feasible) {
    const int probe_j = best_j > 0 ? best_j : std::min(kCoarseStride, last);
    const double probe_u =
        probe_j == best_j ? best_u : total_utility(fine_x(probe_j));
    if (flat_at(total_utility, fine_x(probe_j), probe_u)) {
      return flat_maximum();
    }
  }

  // Smooth V: scan the fine points inside the winning coarse cell.
  const int cell_lo = std::max(0, best_j - kCoarseStride + 1);
  const int cell_hi = std::min(last, best_j + kCoarseStride - 1);
  for (int j = cell_lo; j <= cell_hi; ++j) {
    if (coarse(j)) continue;
    const double v = objective(fine_x(j));
    if (v > best_v) {
      best_j = j;
      best_v = v;
    }
  }
  // Refine within one fine step: golden section until the bracket is
  // kGoldenWidth fine steps wide, then parabolic interpolation from the
  // better of its two last probes. A reservation V is concave between
  // the jumps of k_max and kinks upward at each one, about one flow's
  // share apart, so a fine step can span several local maxima. The
  // golden steps are those of grid_refine_max's refinement; they compare
  // points across those kinks before the parabola commits to one piece.
  const double best_x = fine_x(best_j);
  const auto golden = numerics::golden_section_narrow(
      objective, std::max(lo, best_x - step), std::min(hi, best_x + step),
      kGoldenWidth * step);
  const bool left = golden.f1 >= golden.f2;
  const auto refined = numerics::parabolic_max(
      objective, golden.a, golden.b, left ? golden.x1 : golden.x2,
      left ? golden.f1 : golden.f2, 1e-9);
  // The best scanned point wins if the refinement ends below it.
  const WelfarePoint point = refined.value < best_v
                                 ? WelfarePoint{best_x, best_v}
                                 : WelfarePoint{refined.x, refined.value};
  if (point.welfare <= 0.0) return {{0.0, 0.0}, false};
  return {point, false};
}

/// p̂* = sup_{C>0} V(C)/C: the price above which building anything
/// loses welfare. It is maximised over ln C, as optimal_share maximises
/// π(b)/b, and kShutdownCoarse points resolve a smooth V/C. A step V/C
/// falls along each step, so it peaks where a step begins; a grid finds
/// that point only to within a grid step, and golden section can climb
/// the falling side of the previous step instead. So a step V takes
/// kShutdownFine points to pick the step, then bisects for its start.
double shutdown_price(const std::function<double(double)>& total_utility,
                      double scale_hint) {
  auto ratio = [&total_utility](double log_c) {
    const double c = std::exp(log_c);
    const double v = total_utility(c);
    return std::isfinite(v) ? v / c : -kInf;
  };
  const double lo = std::log(kShutdownLo * scale_hint);
  const double hi = std::log(4.0 * scale_hint);
  const auto best =
      numerics::grid_refine_max(ratio, lo, hi, kShutdownCoarse, 1e-12);
  const double c = std::exp(best.x);
  if (!flat_at(total_utility, c, total_utility(c))) {
    return std::max(0.0, best.value);
  }
  const auto fine =
      numerics::grid_refine_max(ratio, lo, hi, kShutdownFine, 1e-12);
  // The step holding fine.x began less than one fine step to its left:
  // a fine point on the same step further left would score higher.
  const double v = total_utility(std::exp(fine.x));
  double a = fine.x - (hi - lo) / (kShutdownFine - 1);
  double b = fine.x;
  while (b - a > kShutdownLogTol) {
    const double m = 0.5 * (a + b);
    (same_value(total_utility(std::exp(m)), v) ? b : a) = m;
  }
  return std::max({0.0, fine.value, v / std::exp(b)});
}

// γ = p̂/p at the root of W_R(p̂) − target that [a, b] brackets.
double solve_ratio(const std::function<double(double)>& deficit, double price,
                   double a, double b, double at_a, double at_b) {
  const auto root =
      numerics::brent(deficit, {a, b, at_a, at_b},
                      {.x_tol = 1e-14, .x_rtol = 1e-10, .f_tol = 0.0,
                       .max_iterations = 200});
  return root.x / price;
}

// W_R(p̂) = target for p̂ > p, given gap = W_R(p) − target > 0: double
// p̂ until W_R falls to the target, then Brent on the bracket. W_R is
// nonincreasing, so the bracket holds the root.
double bracket_ratio(const std::function<double(double)>& welfare_reservation,
                     double target, double price, double gap) {
  auto deficit = [&welfare_reservation, target](double p_hat) {
    return welfare_reservation(p_hat) - target;
  };
  double hi = 2.0 * price;
  double at_hi = deficit(hi);
  while (at_hi > 0.0) {
    hi *= 2.0;
    if (hi / price > kRatioCap) return kInf;
    at_hi = deficit(hi);
  }
  return solve_ratio(deficit, price, price, hi, gap, at_hi);
}

}  // namespace

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
  return maximize(total_utility, total_utility_grid, price, scale_hint,
                  grid_points)
      .point;
}

double equalizing_price_ratio(
    const std::function<double(double)>& welfare_best_effort,
    const std::function<double(double)>& welfare_reservation, double price) {
  if (!(price > 0.0)) {
    throw std::invalid_argument("equalizing_price_ratio: price must be > 0");
  }
  const double target = welfare_best_effort(price);
  const double gap = welfare_reservation(price) - target;
  if (gap <= 0.0) return 1.0;  // W_R(p) ≤ W_B(p) can only mean equality
  return bracket_ratio(welfare_reservation, target, price, gap);
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
  if (!(price > 0.0)) {
    throw std::invalid_argument("equalizing_price_ratio: price must be > 0");
  }
  // Where best effort builds nothing, W_R(p̂) = W_B(p) = 0 holds for
  // every p̂ past the price at which the reservation provider stops
  // building too; γ is the first of them.
  const double target = best_effort(price).welfare;
  if (target <= 0.0) return std::max(1.0, shutdown_price(v_r_, scale_) / price);
  const Maximum at_p = maximize(v_r_, vg_r_, price, scale_, 512);
  double gap = at_p.point.welfare - target;
  if (gap <= 0.0) return 1.0;  // W_R(p) ≤ W_B(p) can only mean equality
  auto wr = [this](double p) { return reservation(p).welfare; };
  if (at_p.flat) return bracket_ratio(wr, target, price, gap);

  // Smooth V_R: Newton on W_R(p̂) = W_B(p) from p̂ = p, with the
  // envelope slope dW_R/dp̂ = −C_R(p̂). W_R is a supremum of lines in
  // p̂, hence convex, so from the left the iterates rise monotonically
  // and never pass the root; one that lands below the target (the
  // maximiser's rounding) hands its bracket to Brent.
  double p_hat = price;
  double capacity = at_p.point.capacity;
  for (int step = 0; step < kMaxNewtonSteps && capacity > 0.0; ++step) {
    const double next = p_hat + gap / capacity;
    // Convergence is quadratic: a step this small leaves p̂ within
    // about its own length of the root, so it is not re-evaluated.
    if (next - p_hat < kNewtonStep * next) return next / price;
    if (next / price > kRatioCap) return kInf;
    counters().newton_steps.inc();
    const Maximum at_next = maximize(v_r_, vg_r_, next, scale_, 512);
    const double next_gap = at_next.point.welfare - target;
    if (next_gap < 0.0) {
      counters().brent_fallbacks.inc();
      auto deficit = [&wr, target](double q) { return wr(q) - target; };
      return solve_ratio(deficit, price, p_hat, next, gap, next_gap);
    }
    p_hat = next;
    gap = next_gap;
    capacity = at_next.point.capacity;
    if (gap == 0.0) return p_hat / price;
  }
  // No convergence within the step budget: bracket from p̂ = p instead.
  counters().brent_fallbacks.inc();
  return bracket_ratio(wr, target, price, at_p.point.welfare - target);
}

}  // namespace bevr::core
