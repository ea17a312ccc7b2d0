#include "bevr/core/series_tail.h"

#include <algorithm>
#include <limits>

namespace bevr::core {

namespace {

// Tail quadrature tolerance relative to the head sum (2^-55, an eighth
// of an ulp): the tail then adds at most that to B's relative error.
constexpr double kTailTolerance = 0x1p-55;

}  // namespace

std::int64_t hybrid_head_terms(const utility::UtilityFunction& pi,
                               std::int64_t direct_budget) {
  return pi.smooth() ? std::min(kSmoothHeadTerms, direct_budget)
                     : direct_budget;
}

numerics::QuadratureResult series_tail(const dist::DiscreteLoad& load,
                                       const utility::UtilityFunction& pi,
                                       double capacity, std::int64_t k_direct,
                                       std::optional<std::int64_t> k_last,
                                       double head_sum) {
  const auto f = [&load, &pi, capacity](double x) {
    return load.pmf_continuous(x) * x * pi.value(capacity / x);
  };
  const double a = static_cast<double>(k_direct) + 0.5;
  const double hi = k_last ? static_cast<double>(*k_last) + 0.5
                           : std::numeric_limits<double>::infinity();
  // x = a/u, dx = (a/u²)·du = (x/u)·du.
  const auto integrand = [&f, a](double u) {
    const double x = a / u;
    return f(x) * (x / u);
  };
  numerics::QuadratureResult tail =
      numerics::integrate(integrand, a / hi, 1.0, kTailTolerance * head_sum,
                          kTailTolerance);
  if (pi.smooth()) {
    // (1/24)·f′ − (7/5760)·f‴ at each end, from the four integers
    // around it: f′ ≈ (27·d₁ − d₃)/24 and f‴ ≈ d₃ − 3·d₁, with
    // d₁ = f(x + ½) − f(x − ½) and d₃ = f(x + 3/2) − f(x − 3/2).
    const auto correction = [&f](double x) {
      const double d1 = f(x + 0.5) - f(x - 0.5);
      const double d3 = f(x + 1.5) - f(x - 1.5);
      return (291.0 * d1 - 17.0 * d3) / 5760.0;
    };
    tail.value += correction(a);
    tail.evaluations += 4;
    if (k_last) {
      tail.value -= correction(hi);
      tail.evaluations += 4;
    }
  }
  return tail;
}

}  // namespace bevr::core
