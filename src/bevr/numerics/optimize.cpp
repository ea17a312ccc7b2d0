#include "bevr/numerics/optimize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace bevr::numerics {

GoldenBracket golden_section_narrow(const std::function<double(double)>& f,
                                    double lo, double hi, double width,
                                    int max_iterations) {
  if (!(lo <= hi)) throw std::invalid_argument("golden_section_max: lo > hi");
  constexpr double kInvPhi = 0.6180339887498949;  // 1/phi
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  int evals = 2;
  for (int iter = 0; iter < max_iterations && (b - a) > width; ++iter) {
    if (f1 >= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
    ++evals;
  }
  return {a, b, x1, f1, x2, f2, evals};
}

MaxResult golden_section_max(const std::function<double(double)>& f, double lo,
                             double hi, double x_tol, int max_iterations) {
  const GoldenBracket g = golden_section_narrow(f, lo, hi, x_tol, max_iterations);
  const double x = 0.5 * (g.a + g.b);
  return {x, f(x), g.evaluations + 1};
}

MaxResult parabolic_max(const std::function<double(double)>& f, double lo,
                        double hi, double x0, double f0, double x_tol) {
  if (!(lo <= hi)) throw std::invalid_argument("parabolic_max: lo > hi");
  if (!(lo <= x0 && x0 <= hi)) {
    throw std::invalid_argument("parabolic_max: start outside [lo, hi]");
  }
  constexpr double kGolden = 0.3819660112501051;  // (3 − √5)/2
  constexpr double kRelTol = 1.5e-8;              // ≈ √ε
  constexpr int kMaxIterations = 100;
  // Brent's localmin on g = −f. x holds the best point so far, w the
  // second best, v the previous w; e is the step before last, whose
  // size a parabolic step must halve to be accepted.
  double a = lo, b = hi;
  double x = x0, w = x0, v = x0;
  double gx = -f0, gw = gx, gv = gx;
  double d = 0.0, e = 0.0;
  int evals = 0;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    const double m = 0.5 * (a + b);
    const double tol = kRelTol * std::fabs(x) + x_tol / 3.0;
    const double tol2 = 2.0 * tol;
    if (std::fabs(x - m) <= tol2 - 0.5 * (b - a)) break;
    double p = 0.0, q = 0.0, r = 0.0;
    if (std::fabs(e) > tol) {
      r = (x - w) * (gx - gv);
      q = (x - v) * (gx - gw);
      p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) {
        p = -p;
      } else {
        q = -q;
      }
      r = e;
      e = d;
    }
    if (std::fabs(p) < std::fabs(0.5 * q * r) && p > q * (a - x) &&
        p < q * (b - x)) {
      d = p / q;  // parabolic step
      const double u = x + d;
      if (u - a < tol2 || b - u < tol2) d = x < m ? tol : -tol;
    } else {
      e = (x < m ? b : a) - x;  // golden step into the larger part
      d = kGolden * e;
    }
    const double u = x + (std::fabs(d) >= tol ? d : (d > 0.0 ? tol : -tol));
    const double gu = -f(u);
    ++evals;
    if (gu <= gx) {
      (u < x ? b : a) = x;
      v = w;
      gv = gw;
      w = x;
      gw = gx;
      x = u;
      gx = gu;
    } else {
      (u < x ? a : b) = u;
      if (gu <= gw || w == x) {
        v = w;
        gv = gw;
        w = u;
        gw = gu;
      } else if (gu <= gv || v == x || v == w) {
        v = u;
        gv = gu;
      }
    }
  }
  return {x, -gx, evals};
}

MaxResult grid_refine_max(const std::function<double(double)>& f, double lo,
                          double hi, int grid_points, double x_tol) {
  if (!(lo <= hi)) throw std::invalid_argument("grid_refine_max: lo > hi");
  if (grid_points < 3) throw std::invalid_argument("grid_refine_max: need >= 3 grid points");
  const double step = (hi - lo) / (grid_points - 1);
  double best_x = lo;
  double best_v = f(lo);
  int evals = 1;
  for (int i = 1; i < grid_points; ++i) {
    const double x = lo + step * i;
    const double v = f(x);
    ++evals;
    if (v > best_v) {
      best_v = v;
      best_x = x;
    }
  }
  const double a = std::max(lo, best_x - step);
  const double b = std::min(hi, best_x + step);
  MaxResult refined = golden_section_max(f, a, b, x_tol);
  refined.evaluations += evals;
  if (refined.value < best_v) {
    refined.x = best_x;
    refined.value = best_v;
  }
  return refined;
}

MaxResult grid_refine_max(const std::function<double(double)>& f,
                          const GridEvalFn& grid_eval, double lo, double hi,
                          int grid_points, double x_tol) {
  if (!grid_eval) return grid_refine_max(f, lo, hi, grid_points, x_tol);
  if (!(lo <= hi)) throw std::invalid_argument("grid_refine_max: lo > hi");
  if (grid_points < 3) throw std::invalid_argument("grid_refine_max: need >= 3 grid points");
  const double step = (hi - lo) / (grid_points - 1);
  std::vector<double> values(static_cast<std::size_t>(grid_points));
  grid_eval(lo, hi, grid_points, values);
  // Same scan as the scalar overload: i = 0 seeds, strict > advances.
  double best_x = lo;
  double best_v = values[0];
  for (int i = 1; i < grid_points; ++i) {
    const double v = values[static_cast<std::size_t>(i)];
    if (v > best_v) {
      best_v = v;
      best_x = lo + step * i;
    }
  }
  const double a = std::max(lo, best_x - step);
  const double b = std::min(hi, best_x + step);
  MaxResult refined = golden_section_max(f, a, b, x_tol);
  refined.evaluations += grid_points;
  if (refined.value < best_v) {
    refined.x = best_x;
    refined.value = best_v;
  }
  return refined;
}

IntMaxResult integer_argmax(const std::function<double(std::int64_t)>& f,
                            std::int64_t lo, std::int64_t hi,
                            bool assume_unimodal) {
  if (lo > hi) throw std::invalid_argument("integer_argmax: empty range");
  if (!assume_unimodal || hi - lo <= 64) {
    IntMaxResult best{lo, f(lo)};
    for (std::int64_t k = lo + 1; k <= hi; ++k) {
      const double v = f(k);
      if (v > best.value) best = {k, v};
    }
    return best;
  }
  // Ternary search until the interval is small, then scan. This handles
  // short plateaus (ties) that pure ternary search can mis-handle.
  std::int64_t a = lo, b = hi;
  while (b - a > 64) {
    const std::int64_t m1 = a + (b - a) / 3;
    const std::int64_t m2 = b - (b - a) / 3;
    if (f(m1) < f(m2)) {
      a = m1 + 1;
    } else {
      b = m2 - 1;
    }
  }
  IntMaxResult best{a, f(a)};
  for (std::int64_t k = a + 1; k <= b; ++k) {
    const double v = f(k);
    if (v > best.value) best = {k, v};
  }
  return best;
}

}  // namespace bevr::numerics
