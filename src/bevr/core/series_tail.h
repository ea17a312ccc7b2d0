// The far tail of a hybrid variable-load series (DESIGN §2.4).
//
// A series Σ_{k=k_lo}^{k_hi} P(k)·k·π(C/k) whose window holds more than
// the model's direct_budget terms is summed directly over a head and
// integrated over the rest. VariableLoadModel and
// kernels::SweepEvaluator both take their head length and their tail
// from here, so the scalar specification and the kernel stay
// bit-identical by construction.
//
// The tail Σ_{k=m}^{n} f(k), f(x) = pmf_continuous(x)·x·π(C/x), is the
// Euler–Maclaurin midpoint form
//   ∫_{m−½}^{n+½} f(x) dx + [(1/24)·f′ − (7/5760)·f‴]_{n+½}^{m−½} + R,
//   |R| ≤ (31/967680)·|f⁽⁵⁾(m−½)|   (the n + ½ terms drop at n = ∞),
// with the integral taken in x = a/u, a = m − ½: ∫_0^1 f(a/u)·a/u² du
// (from u = a/(n+½) for a finite end). The substitution follows the
// tail's own scale, so an algebraic tail becomes a low-degree
// polynomial in u that a few Gauss–Kronrod panels resolve.
#pragma once

#include <cstdint>
#include <optional>

#include "bevr/dist/discrete.h"
#include "bevr/numerics/quadrature.h"
#include "bevr/utility/utility.h"

namespace bevr::core {

/// Head length of a hybrid series over a smooth utility. At
/// a = 2048.5 the corrected tail's remainder, R plus the derivative
/// stencils' (2/5760)·|f⁽⁵⁾(a)|, stays below 1e-21 of B across
/// z ∈ [2.2, 4], k̄ ∈ [50, 200], C ∈ [10, 10⁴] (DESIGN §2.4), far under
/// the per-term rounding that bounds B.
inline constexpr std::int64_t kSmoothHeadTerms = 2048;

/// Terms a hybrid series sums directly before its tail:
/// kSmoothHeadTerms (capped at direct_budget) when pi.smooth(), else
/// direct_budget. Step and kinked utilities keep the long head, since
/// the Euler–Maclaurin correction assumes a smooth f.
[[nodiscard]] std::int64_t hybrid_head_terms(
    const utility::UtilityFunction& pi, std::int64_t direct_budget);

/// Σ_{k=k_direct+1}^{k_last} P(k)·k·π(C/k) (k_last = nullopt: to ∞),
/// for a series whose head summed to head_sum. The quadrature's
/// absolute tolerance is an eighth of an ulp of head_sum; the
/// derivative corrections are added only for smooth utilities.
/// `evaluations` counts every call of f, quadrature nodes and
/// derivative stencils alike.
[[nodiscard]] numerics::QuadratureResult series_tail(
    const dist::DiscreteLoad& load, const utility::UtilityFunction& pi,
    double capacity, std::int64_t k_direct,
    std::optional<std::int64_t> k_last, double head_sum);

}  // namespace bevr::core
