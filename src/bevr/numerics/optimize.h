// One-dimensional maximisation.
//
// The welfare model (paper §4) maximises V(C) - p*C over capacity C.
// In the discrete model V_R has kinks (k_max(C) is integer-valued) and
// V_B under rigid utility is a pure step function, so we provide both
// a golden-section search (for smooth/unimodal objectives) and a
// robust grid-scan + local-refine maximiser for kinked objectives.
// The fixed-load model needs an integer argmax of k -> k*pi(C/k).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

namespace bevr::numerics {

/// Result of a scalar maximisation.
struct MaxResult {
  double x = 0.0;    ///< maximising argument
  double value = 0.0;///< objective value at x
  int evaluations = 0;
};

/// Golden-section search for the maximum of a unimodal `f` on [lo, hi].
[[nodiscard]] MaxResult golden_section_max(
    const std::function<double(double)>& f, double lo, double hi,
    double x_tol = 1e-10, int max_iterations = 200);

/// A golden-section search in progress: the bracket [a, b] and its two
/// interior probes x1 < x2 with their values.
struct GoldenBracket {
  double a = 0.0, b = 0.0;
  double x1 = 0.0, f1 = 0.0;
  double x2 = 0.0, f2 = 0.0;
  int evaluations = 0;
};

/// The golden-section iterations of golden_section_max, stopped once
/// b − a ≤ width: the same probes in the same order, so a search that
/// continues from the result sees what golden_section_max would.
[[nodiscard]] GoldenBracket golden_section_narrow(
    const std::function<double(double)>& f, double lo, double hi,
    double width, int max_iterations = 200);

/// Brent's derivative-free maximiser (localmin of −f, Brent 1973 ch. 5)
/// on [lo, hi] from a start x0 ∈ [lo, hi] whose value f0 = f(x0) is
/// already known (a scan's best point; f(x0) is not re-evaluated, and
/// `evaluations` counts only new calls): parabolic steps through the
/// three best points, golden steps when a parabola is rejected. It
/// stops once x is known to 2·(√ε·|x| + x_tol); a relative tolerance
/// below √ε buys nothing, because a maximum is square-root conditioned.
/// On a smooth maximum it converges superlinearly, so it takes a few
/// evaluations where golden section takes dozens.
[[nodiscard]] MaxResult parabolic_max(const std::function<double(double)>& f,
                                      double lo, double hi, double x0,
                                      double f0, double x_tol);

/// Robust maximiser for possibly kinked / stepped objectives on [lo, hi]:
/// scans `grid_points` equally spaced samples, then refines around the
/// best sample with golden-section search on the neighbouring bracket.
[[nodiscard]] MaxResult grid_refine_max(
    const std::function<double(double)>& f, double lo, double hi,
    int grid_points = 512, double x_tol = 1e-9);

/// Bulk evaluation of an objective over the equally spaced scan grid of
/// grid_refine_max: out[i] must receive f(lo + step·i) exactly, for
/// step = (hi − lo)/(n − 1). Callers batch the dominant cost of the
/// scan (one kernel sweep / one table fill) while the refinement stage
/// keeps probing the scalar f.
using GridEvalFn =
    std::function<void(double lo, double hi, int n, std::span<double> out)>;

/// grid_refine_max with the scan stage batched through `grid_eval`.
/// Identical scan order and comparisons as the scalar overload, so for
/// a grid_eval that honours its exact-value contract the result is
/// bit-identical — only the evaluation plumbing changes.
[[nodiscard]] MaxResult grid_refine_max(
    const std::function<double(double)>& f, const GridEvalFn& grid_eval,
    double lo, double hi, int grid_points = 512, double x_tol = 1e-9);

/// Result of an integer argmax search.
struct IntMaxResult {
  std::int64_t k = 0;
  double value = 0.0;
};

/// Argmax of f(k) over integers k in [lo, hi]. Exploits unimodality by
/// ternary search when `assume_unimodal` is true; otherwise scans.
/// For unimodal search, plateaus are handled by falling back to a local
/// scan once the interval is small.
[[nodiscard]] IntMaxResult integer_argmax(
    const std::function<double(std::int64_t)>& f, std::int64_t lo,
    std::int64_t hi, bool assume_unimodal = true);

}  // namespace bevr::numerics
