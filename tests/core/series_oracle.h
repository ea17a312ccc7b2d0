// Long-double oracle for the variable-load series (DESIGN §2.4).
//
// Recomputes B(C), R(C) and k_max(C) from the load's and the utility's
// parameters alone, and shares no code with the library under test:
//
//  * its own load weights w(k) in long double: Poisson e^{−ν}ν^k/k! by
//    the recurrence, exponential e^{−βk}, algebraic (λ + k)^{−z}. B and
//    R are ratios of series in w, so no normaliser enters except the
//    oracle's own mean Σ k·w(k) and mass Σ w(k);
//  * its own utilities, through expm1l;
//  * its own k_max, by scanning V(k) = k·π(C/k).
//
// Each series Σ_{k≥1} g(k) is summed directly over k = 1 … 2^18 with
// Neumaier compensation. The remainder k > 2^18 is the Euler–Maclaurin
// midpoint form: a 20-point Gauss–Legendre integral over geometric
// panels [x, 4x] from a = 2^18 + ½ out to 4^133·a, plus (1/24)·g′(a)
// − (7/5760)·g‴(a) from five-point differences. A Poisson weight has
// underflowed long double long before 2^18 (ν ≤ 10⁴), so its
// remainder is zero.
//
// Accuracy: every term carries a few long-double roundings (u_ld =
// 2^-64), the sums are compensated, and the remainder's quadrature and
// Euler–Maclaurin errors lie far below that, so B and R are good to
// about 1e-18 relative: three orders under the double-precision bound
// they check.
//
// Welfare (paper §4) from the first-order condition. The totals are
// V_B(C) = k̄·B(C) and V_m(C) = k̄·R(C) with the admission limit held at
// m, whose slopes are Σ_k P(k)·π′(C/k) and Σ_{k≤m} P(k)·π′(C/k) +
// P(K > m)·π′(C/m). V_R = V_{k_max(C)} = max_m V_m, since k·π(C/k) is
// unimodal in k, so max_C V_R − p·C is the largest of the pieces'
// maxima, and each piece's is where its slope falls through p
// (smooth utilities only).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace bevr::oracle {

using Real = long double;

enum class LoadKind { kPoisson, kExponential, kAlgebraic };
enum class UtilKind { kAdaptive, kElastic, kRigid };

/// A load by its parameters: Poisson ν, exponential β, algebraic
/// (z, λ) with w(k) = (λ + k)^{−z}.
struct LoadParams {
  LoadKind kind = LoadKind::kAlgebraic;
  double param = 0.0;  ///< ν, β or λ
  double z = 0.0;      ///< algebraic only
};

/// A utility by its parameter: adaptive κ, rigid b̂ (elastic: unused).
struct UtilParams {
  UtilKind kind = UtilKind::kAdaptive;
  double param = 0.0;
};

/// Neumaier-compensated long-double accumulator.
class Accumulator {
 public:
  void add(Real term) {
    const Real t = sum_ + term;
    if (std::fabs(sum_) >= std::fabs(term)) {
      comp_ += (sum_ - t) + term;
    } else {
      comp_ += (term - t) + sum_;
    }
    sum_ = t;
  }
  [[nodiscard]] Real value() const { return sum_ + comp_; }

 private:
  Real sum_ = 0.0L;
  Real comp_ = 0.0L;
};

class SeriesOracle {
 public:
  static constexpr std::int64_t kDirectTerms = std::int64_t{1} << 18;

  SeriesOracle(LoadParams load, UtilParams util) : load_(load), util_(util) {
    if (load_.kind == LoadKind::kPoisson && !(load_.param <= 1e4)) {
      throw std::invalid_argument("SeriesOracle: Poisson nu above 1e4");
    }
    w_.resize(static_cast<std::size_t>(kDirectTerms) + 1);
    if (load_.kind == LoadKind::kPoisson) {
      const Real nu = load_.param;
      Real w = std::exp(-nu);  // w(0)
      for (std::int64_t k = 1; k <= kDirectTerms; ++k) {
        w *= nu / static_cast<Real>(k);
        w_[static_cast<std::size_t>(k)] = w;
      }
    } else {
      for (std::int64_t k = 1; k <= kDirectTerms; ++k) {
        w_[static_cast<std::size_t>(k)] = weight(static_cast<Real>(k));
      }
    }
    Accumulator mean;
    for (std::int64_t k = 1; k <= kDirectTerms; ++k) {
      mean.add(static_cast<Real>(k) * w_[static_cast<std::size_t>(k)]);
    }
    mean.add(remainder([this](Real x) { return x * weight(x); }));
    mean_ = mean.value();
    mass_beyond_ = remainder([this](Real x) { return weight(x); });
    // Σ w(k) over the load's support: k ≥ 0, but k ≥ 1 for the
    // algebraic load (w(0) is e^{−ν} for Poisson, 1 for exponential).
    Accumulator mass;
    if (load_.kind == LoadKind::kPoisson) mass.add(std::exp(-nu_ld()));
    if (load_.kind == LoadKind::kExponential) mass.add(1.0L);
    for (std::int64_t k = 1; k <= kDirectTerms; ++k) {
      mass.add(w_[static_cast<std::size_t>(k)]);
    }
    mass.add(mass_beyond_);
    mass_ = mass.value();
    // above_[k] = Σ_{j>k} w(j), summed from the far end.
    above_.resize(static_cast<std::size_t>(kDirectTerms) + 1);
    Accumulator above;
    above.add(mass_beyond_);
    for (std::int64_t k = kDirectTerms; k >= 0; --k) {
      above_[static_cast<std::size_t>(k)] = above.value();
      if (k > 0) above.add(w_[static_cast<std::size_t>(k)]);
    }
  }

  /// k̄ = Σ k·w(k) / Σ w(k).
  [[nodiscard]] Real mean_load() const { return mean_ / mass_; }

  /// P(K ≥ 1).
  [[nodiscard]] Real busy_probability() const {
    switch (load_.kind) {
      case LoadKind::kPoisson: return 1.0L - std::exp(-nu_ld()) / mass_;
      case LoadKind::kExponential: return 1.0L - 1.0L / mass_;
      case LoadKind::kAlgebraic: return 1.0L;
    }
    return 0.0L;
  }

  /// max_b π(b)/b, where π′(b)·b = π(b), by bisection on b ∈ [2^-4, 2^6].
  [[nodiscard]] Real best_share_value() const {
    Real lo = 0.0625L;
    Real hi = 64.0L;
    for (int i = 0; i < 200 && hi - lo > 1e-30L; ++i) {
      const Real mid = 0.5L * (lo + hi);
      (utility_slope(mid) * mid > utility(mid) ? lo : hi) = mid;
    }
    const Real b = 0.5L * (lo + hi);
    return utility(b) / b;
  }

  /// V_B(C) = k̄·B(C) and V_B′(C) = Σ_k P(k)·π′(C/k).
  [[nodiscard]] Real total_best_effort(double capacity) const {
    return mean_load() * best_effort(capacity);
  }
  /// π′ ≤ 1 for both smooth utilities, so the terms past k add at most
  /// Σ_{j>k} w(j); the sum stops once that is below 2^-80 of it.
  [[nodiscard]] Real total_best_effort_slope(double capacity) const {
    const Real c = capacity;
    Accumulator sum;
    for (std::int64_t k = 1; k <= kDirectTerms; ++k) {
      sum.add(w_[static_cast<std::size_t>(k)] *
              utility_slope(c / static_cast<Real>(k)));
      if (k % 64 == 0 && mass_above(k) < 0x1p-80L * sum.value()) {
        return sum.value() / mass_;
      }
    }
    sum.add(remainder([this, c](Real x) { return weight(x) * utility_slope(c / x); }));
    return sum.value() / mass_;
  }

  /// V_m(C): the reservation total with the admission limit held at m
  /// (V_R(C) = V_{k_max(C)}(C)), and its slope in C.
  [[nodiscard]] Real total_reservation_at(double capacity, std::int64_t m) const {
    const Real c = capacity;
    const Real md = static_cast<Real>(m);
    return (head_sum(capacity, m) + md * utility(c / md) * mass_above(m)) / mass_;
  }
  [[nodiscard]] Real total_reservation_slope(double capacity, std::int64_t m) const {
    const Real c = capacity;
    Accumulator sum;
    for (std::int64_t k = 1; k <= m; ++k) {
      sum.add(w_[static_cast<std::size_t>(k)] *
              utility_slope(c / static_cast<Real>(k)));
    }
    sum.add(utility_slope(c / static_cast<Real>(m)) * mass_above(m));
    return sum.value() / mass_;
  }

  /// A maximum of V(C) − p·C, with |V″| there.
  struct Optimum {
    double capacity = 0.0;
    Real welfare = 0.0L;
    Real curvature = 0.0L;
  };

  /// The stationary point of V_B − p·C near `guess`: a bracket grown
  /// geometrically around it until V_B′ − p changes sign, then bisected
  /// to 1e-10 relative (W is flat there, so C's own error enters W
  /// squared, at 1e-20 relative). |V″| is the slope's difference
  /// quotient over the first bracket.
  [[nodiscard]] Optimum best_effort_optimum(double price, double guess) const {
    Optimum opt = stationary_point(
        [this](double x) { return total_best_effort_slope(x); }, price, guess);
    opt.welfare = total_best_effort(opt.capacity) -
                  static_cast<Real>(price) * opt.capacity;
    return opt;
  }

  /// The stationary point of V_m − p·C near `guess`, as above.
  [[nodiscard]] Optimum reservation_optimum(double price, std::int64_t m,
                                            double guess) const {
    Optimum opt = stationary_point(
        [this, m](double x) { return total_reservation_slope(x, m); }, price,
        guess);
    opt.welfare = total_reservation_at(opt.capacity, m) -
                  static_cast<Real>(price) * opt.capacity;
    return opt;
  }

  /// k_max(C) = argmax_k k·π(C/k) (first maximiser); −1 for the
  /// elastic utility, whose V(k) rises without bound.
  [[nodiscard]] std::int64_t k_max(double capacity) const {
    if (util_.kind == UtilKind::kElastic) return -1;
    const Real c = capacity;
    std::int64_t best = 1;
    Real best_v = utility(c);
    for (std::int64_t k = 2; k <= kDirectTerms; ++k) {
      const Real kd = static_cast<Real>(k);
      const Real v = kd * utility(c / kd);
      if (v > best_v) {
        best = k;
        best_v = v;
      } else if (kd > 4.0L * c + 16.0L) {
        break;  // past the unimodal peak and then some
      }
    }
    return best;
  }

  /// f⁽⁵⁾(x) by the six-point central difference with step x/32.
  [[nodiscard]] Real term_fifth_derivative(double capacity, Real x) const {
    const Real h = x / 32.0L;
    const auto f = [this, capacity](Real y) { return term(capacity, y); };
    return (f(x + 3 * h) - 4 * f(x + 2 * h) + 5 * f(x + h) - 5 * f(x - h) +
            4 * f(x - 2 * h) - f(x - 3 * h)) /
           (2 * h * h * h * h * h);
  }

  /// B(C) = Σ_k w(k)·k·π(C/k) / Σ_k k·w(k).
  [[nodiscard]] Real best_effort(double capacity) const {
    const Real c = capacity;
    Accumulator sum;
    sum.add(head_sum(capacity, kDirectTerms));
    sum.add(remainder([this, c](Real x) { return weight(x) * x * utility(c / x); }));
    return sum.value() / mean_;
  }

  /// Σ_{k ≤ k_last} f(k): B(C) of a series stopped at k_last ≤ 2^18.
  [[nodiscard]] Real best_effort_through(double capacity,
                                         std::int64_t k_last) const {
    return head_sum(capacity, std::min(k_last, kDirectTerms)) / mean_;
  }

  /// R(C) = [Σ_{k≤k_max} w(k)·k·π(C/k) + k_max·π(C/k_max)·Σ_{k>k_max}
  /// w(k)] / Σ_k k·w(k); B(C) for an elastic utility.
  [[nodiscard]] Real reservation(double capacity) const {
    const std::int64_t kmax = k_max(capacity);
    if (kmax < 0) return best_effort(capacity);
    const Real head = head_sum(capacity, kmax);
    Accumulator beyond;
    for (std::int64_t k = kmax + 1; k <= kDirectTerms; ++k) {
      beyond.add(w_[static_cast<std::size_t>(k)]);
    }
    beyond.add(mass_beyond_);
    const Real kd = static_cast<Real>(kmax);
    return (head + kd * utility(static_cast<Real>(capacity) / kd) *
                       beyond.value()) /
           mean_;
  }

 private:
  /// π(b) of the oracle's utility.
  [[nodiscard]] Real utility(Real b) const {
    switch (util_.kind) {
      case UtilKind::kAdaptive:
        return -std::expm1(-b * b / (static_cast<Real>(util_.param) + b));
      case UtilKind::kElastic:
        return -std::expm1(-b);
      case UtilKind::kRigid:
        return b >= static_cast<Real>(util_.param) ? 1.0L : 0.0L;
    }
    return 0.0L;
  }

  /// π′(b) of the oracle's utility (the rigid step has none).
  [[nodiscard]] Real utility_slope(Real b) const {
    switch (util_.kind) {
      case UtilKind::kAdaptive: {
        const Real kappa = util_.param;
        const Real q = 1.0L / (kappa + b);
        return std::exp(-b * b * q) * b * (b + 2.0L * kappa) * q * q;
      }
      case UtilKind::kElastic:
        return std::exp(-b);
      case UtilKind::kRigid:
        throw std::logic_error("SeriesOracle: a rigid utility has no slope");
    }
    return 0.0L;
  }

  [[nodiscard]] Real nu_ld() const { return static_cast<Real>(load_.param); }

  /// Σ_{j>k} w(j), 0 ≤ k ≤ 2^18.
  [[nodiscard]] Real mass_above(std::int64_t k) const {
    return above_.at(static_cast<std::size_t>(k));
  }

  /// The root of slope(C) = p near guess, for a slope falling through p:
  /// the bracket guess·(1 ∓ w) grows 4× until it holds a sign change.
  template <typename Slope>
  [[nodiscard]] static Optimum stationary_point(const Slope& slope,
                                                double price, double guess) {
    const Real p = price;
    double lo = guess;
    double hi = guess;
    Real curvature = 0.0L;
    for (double widen = 1e-7;; widen *= 4.0) {
      if (widen > 0.5) {
        throw std::runtime_error("SeriesOracle: no stationary point near guess");
      }
      lo = guess * (1.0 - widen);
      hi = guess * (1.0 + widen);
      const Real at_lo = slope(lo);
      const Real at_hi = slope(hi);
      if (at_lo > p && at_hi < p) {
        curvature = (at_lo - at_hi) / static_cast<Real>(hi - lo);
        break;
      }
    }
    while (hi - lo > 1e-10 * hi) {
      const double mid = 0.5 * (lo + hi);
      (slope(mid) > p ? lo : hi) = mid;
    }
    return {0.5 * (lo + hi), 0.0L, curvature};
  }

  /// The normalised series term f(x) = w(x)·x·π(C/x)/Σ k·w(k), whose
  /// sum over k ≥ 1 is B(C).
  [[nodiscard]] Real term(double capacity, Real x) const {
    return weight(x) * x * utility(static_cast<Real>(capacity) / x) / mean_;
  }

  /// The load weight's smooth continuation (zero for Poisson, whose
  /// weight has underflowed wherever the remainder asks for it).
  [[nodiscard]] Real weight(Real x) const {
    switch (load_.kind) {
      case LoadKind::kPoisson:
        return 0.0L;
      case LoadKind::kExponential:
        return std::exp(-static_cast<Real>(load_.param) * x);
      case LoadKind::kAlgebraic:
        return std::pow(static_cast<Real>(load_.param) + x,
                        -static_cast<Real>(load_.z));
    }
    return 0.0L;
  }

  /// Σ_{k=1}^{k_last} w(k)·k·π(C/k), k_last ≤ 2^18.
  [[nodiscard]] Real head_sum(double capacity, std::int64_t k_last) const {
    const Real c = capacity;
    Accumulator sum;
    for (std::int64_t k = 1; k <= k_last; ++k) {
      const Real kd = static_cast<Real>(k);
      sum.add(w_[static_cast<std::size_t>(k)] * kd * utility(c / kd));
    }
    return sum.value();
  }

  /// Σ_{k > 2^18} g(k) by the Euler–Maclaurin midpoint form.
  template <typename G>
  [[nodiscard]] static Real remainder(const G& g) {
    constexpr int kPanels = 133;  // 4^133 ≈ 1e80
    const Real a = static_cast<Real>(kDirectTerms) + 0.5L;
    const auto& rule = gauss_legendre();
    Accumulator sum;
    Real lo = a;
    for (int panel = 0; panel < kPanels; ++panel) {
      const Real hi = 4.0L * lo;
      const Real mid = 0.5L * (lo + hi);
      const Real half = 0.5L * (hi - lo);
      for (std::size_t i = 0; i < rule.nodes.size(); ++i) {
        sum.add(half * rule.weights[i] * g(mid + half * rule.nodes[i]));
      }
      lo = hi;
    }
    const Real h = a / 32.0L;
    const Real g1 = (g(a - 2 * h) - 8 * g(a - h) + 8 * g(a + h) - g(a + 2 * h)) /
                    (12 * h);
    const Real g3 = (g(a + 2 * h) - 2 * g(a + h) + 2 * g(a - h) - g(a - 2 * h)) /
                    (2 * h * h * h);
    sum.add(g1 / 24.0L);
    sum.add(-7.0L * g3 / 5760.0L);
    return sum.value();
  }

  struct Rule {
    std::array<Real, 20> nodes{};
    std::array<Real, 20> weights{};
  };

  /// 20-point Gauss–Legendre nodes and weights on [−1, 1], by Newton's
  /// method on P_20 in long double.
  [[nodiscard]] static const Rule& gauss_legendre() {
    static const Rule rule = [] {
      Rule r;
      constexpr int n = 20;
      const Real pi = 3.141592653589793238462643383279502884L;
      for (int i = 0; i < n; ++i) {
        Real x = std::cos(pi * (static_cast<Real>(i) + 0.75L) /
                          (static_cast<Real>(n) + 0.5L));
        Real dp = 0.0L;
        for (int iter = 0; iter < 100; ++iter) {
          Real p0 = 1.0L;
          Real p1 = x;
          for (int j = 2; j <= n; ++j) {
            const Real p2 = ((2.0L * j - 1.0L) * x * p1 - (j - 1.0L) * p0) / j;
            p0 = p1;
            p1 = p2;
          }
          dp = n * (x * p1 - p0) / (x * x - 1.0L);
          const Real step = p1 / dp;
          x -= step;
          if (std::fabs(step) < 1e-30L) break;
        }
        r.nodes[static_cast<std::size_t>(i)] = x;
        r.weights[static_cast<std::size_t>(i)] =
            2.0L / ((1.0L - x * x) * dp * dp);
      }
      return r;
    }();
    return rule;
  }

  LoadParams load_;
  UtilParams util_;
  std::vector<Real> w_;  ///< w(k) for k = 0 … 2^18 (w_[0] unused)
  Real mean_ = 0.0L;
  Real mass_beyond_ = 0.0L;  ///< Σ_{k > 2^18} w(k)
  Real mass_ = 0.0L;         ///< Σ w(k) over the support
  std::vector<Real> above_;  ///< above_[k] = Σ_{j>k} w(j)
};

}  // namespace bevr::oracle
