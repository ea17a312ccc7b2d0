#include "bevr/core/continuum.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bevr/core/bandwidth_gap.h"
#include "bevr/core/fixed_load.h"
#include "bevr/numerics/lambert_w.h"
#include "bevr/numerics/quadrature.h"
#include "bevr/numerics/roots.h"

namespace bevr::core {

namespace {

constexpr double kInvE = 0.36787944117144233;

void check_capacity(double c) {
  if (!(c >= 0.0)) {
    throw std::invalid_argument("ContinuumModel: capacity must be >= 0");
  }
}

void check_price(double p) {
  if (!(p > 0.0)) {
    throw std::invalid_argument("ContinuumModel: price must be > 0");
  }
}

/// Solve W_R(p̂) = target for p̂ ∈ [price, p_zero] (W_R decreasing with
/// W_R(p_zero) = 0) and return the ratio p̂/price.
double solve_price_ratio(const std::function<double(double)>& welfare_r,
                         double target, double price, double p_zero) {
  if (target <= 0.0) return p_zero / price;  // degenerate: match at W = 0
  auto deficit = [&welfare_r, target](double p_hat) {
    return welfare_r(p_hat) - target;
  };
  const auto root = numerics::brent(deficit, price, p_zero,
                                    {.x_tol = 1e-14, .x_rtol = 1e-12,
                                     .f_tol = 0.0, .max_iterations = 200});
  return root.x / price;
}

}  // namespace

double ContinuumModel::performance_gap(double capacity) const {
  return std::max(0.0, reservation(capacity) - best_effort(capacity));
}

double ContinuumModel::bandwidth_gap(double capacity) const {
  return core::bandwidth_gap(
      [this](double c) { return best_effort(c); }, capacity,
      best_effort(capacity), reservation(capacity),
      {.first_step = std::max(1.0, 0.25 * capacity), .x_tol = 1e-10,
       .x_rtol = 1e-11});
}

// ---------------------------------------------------------------------------
// NumericContinuumModel

NumericContinuumModel::NumericContinuumModel(
    std::shared_ptr<const dist::ContinuumLoad> load,
    std::shared_ptr<const utility::UtilityFunction> pi)
    : load_(std::move(load)), pi_(std::move(pi)) {
  if (!load_) throw std::invalid_argument("NumericContinuumModel: null load");
  if (!pi_) throw std::invalid_argument("NumericContinuumModel: null utility");
  optimal_share_ = core::optimal_share(*pi_);
  mean_ = load_->mean();
}

double NumericContinuumModel::k_max(double capacity) const {
  check_capacity(capacity);
  return capacity / optimal_share_;
}

double NumericContinuumModel::total_best_effort(double capacity) const {
  check_capacity(capacity);
  if (capacity == 0.0) return 0.0;
  auto integrand = [this, capacity](double k) {
    return load_->density(k) * k * pi_->value(capacity / k);
  };
  const double lo = load_->min_support();
  // Dead zone: π(C/k) = 0 once k > C/b0.
  const double b0 = pi_->zero_below();
  const double hi =
      (b0 > 0.0) ? capacity / b0 : std::numeric_limits<double>::infinity();
  if (hi <= lo) return 0.0;
  double total = 0.0;
  // Split at the b = 1 knee (piecewise utilities) for quadrature accuracy.
  const double knee = capacity;
  double a = lo;
  if (knee > lo && knee < hi) {
    total += numerics::integrate(integrand, lo, knee, 1e-13, 1e-11).value;
    a = knee;
  }
  if (std::isfinite(hi)) {
    total += numerics::integrate(integrand, a, hi, 1e-13, 1e-11).value;
  } else {
    total += numerics::integrate_to_infinity(integrand, a, 1e-13, 1e-11).value;
  }
  return total;
}

double NumericContinuumModel::total_reservation(double capacity) const {
  check_capacity(capacity);
  if (capacity == 0.0) return 0.0;
  const double kmax = k_max(capacity);
  const double lo = load_->min_support();
  double head = 0.0;
  if (kmax > lo) {
    auto integrand = [this, capacity](double k) {
      return load_->density(k) * k * pi_->value(capacity / k);
    };
    const double knee = capacity;
    if (knee > lo && knee < kmax) {
      head += numerics::integrate(integrand, lo, knee, 1e-13, 1e-11).value;
      head += numerics::integrate(integrand, knee, kmax, 1e-13, 1e-11).value;
    } else {
      head += numerics::integrate(integrand, lo, kmax, 1e-13, 1e-11).value;
    }
  }
  const double tail =
      kmax * pi_->value(capacity / kmax) * load_->tail_above(kmax);
  return head + tail;
}

double NumericContinuumModel::best_effort(double capacity) const {
  return total_best_effort(capacity) / mean_;
}

double NumericContinuumModel::reservation(double capacity) const {
  return total_reservation(capacity) / mean_;
}

std::string NumericContinuumModel::name() const {
  return "NumericContinuum[" + load_->name() + ", " + pi_->name() + "]";
}

// ---------------------------------------------------------------------------
// ExponentialRigidContinuum

ExponentialRigidContinuum::ExponentialRigidContinuum(double beta) : beta_(beta) {
  if (!(beta > 0.0)) {
    throw std::invalid_argument("ExponentialRigidContinuum: beta must be > 0");
  }
}

double ExponentialRigidContinuum::best_effort(double capacity) const {
  check_capacity(capacity);
  const double bc = beta_ * capacity;
  return 1.0 - std::exp(-bc) * (1.0 + bc);
}

double ExponentialRigidContinuum::reservation(double capacity) const {
  check_capacity(capacity);
  return -std::expm1(-beta_ * capacity);
}

double ExponentialRigidContinuum::total_best_effort(double capacity) const {
  return best_effort(capacity) / beta_;
}

double ExponentialRigidContinuum::total_reservation(double capacity) const {
  return reservation(capacity) / beta_;
}

double ExponentialRigidContinuum::bandwidth_gap(double capacity) const {
  check_capacity(capacity);
  // βΔ = ln(1 + β(C+Δ)); Δ ~ ln(βC)/β for large C.
  auto f = [this, capacity](double delta) {
    return beta_ * delta - std::log1p(beta_ * (capacity + delta));
  };
  return solve_gap(f, f(0.0),
                   {.first_step = std::max(1.0 / beta_, capacity),
                    .x_tol = 1e-12, .x_rtol = 1e-12});
}

double ExponentialRigidContinuum::capacity_best_effort(double price) const {
  check_price(price);
  if (price >= kInvE) return 0.0;  // V'_B peaks at 1/e; beyond it, build nothing
  const double h = numerics::largest_h_of_he_minus_h(price);
  const double c = h / beta_;
  return (total_best_effort(c) - price * c >= 0.0) ? c : 0.0;
}

double ExponentialRigidContinuum::welfare_best_effort(double price) const {
  check_price(price);
  if (price >= kInvE) return 0.0;
  const double h = numerics::largest_h_of_he_minus_h(price);
  // W_B = (1/β)(1 − p − p/h − p·h).
  const double w = (1.0 - price - price / h - price * h) / beta_;
  return std::max(0.0, w);
}

double ExponentialRigidContinuum::capacity_reservation(double price) const {
  check_price(price);
  if (price >= 1.0) return 0.0;
  return -std::log(price) / beta_;
}

double ExponentialRigidContinuum::welfare_reservation(double price) const {
  check_price(price);
  if (price >= 1.0) return 0.0;
  // W_R = (1/β)(1 − p + p·ln p).
  return std::max(0.0, (1.0 - price + price * std::log(price)) / beta_);
}

double ExponentialRigidContinuum::equalizing_price_ratio(double price) const {
  check_price(price);
  auto wr = [this](double p_hat) { return welfare_reservation(p_hat); };
  return solve_price_ratio(wr, welfare_best_effort(price), price, 1.0);
}

std::string ExponentialRigidContinuum::name() const {
  return "ExponentialRigidContinuum(beta=" + std::to_string(beta_) + ")";
}

// ---------------------------------------------------------------------------
// ExponentialAdaptiveContinuum

ExponentialAdaptiveContinuum::ExponentialAdaptiveContinuum(double beta,
                                                           double floor)
    : beta_(beta), a_(floor) {
  if (!(beta > 0.0)) {
    throw std::invalid_argument("ExponentialAdaptiveContinuum: beta must be > 0");
  }
  if (!(floor > 0.0) || !(floor < 1.0)) {
    throw std::invalid_argument(
        "ExponentialAdaptiveContinuum: floor must lie in (0, 1)");
  }
}

double ExponentialAdaptiveContinuum::best_effort(double capacity) const {
  check_capacity(capacity);
  // B(C) = 1 − e^{−βC}/(1−a) + (a/(1−a))·e^{−βC/a}.
  const double bc = beta_ * capacity;
  return 1.0 - std::exp(-bc) / (1.0 - a_) +
         (a_ / (1.0 - a_)) * std::exp(-bc / a_);
}

double ExponentialAdaptiveContinuum::reservation(double capacity) const {
  check_capacity(capacity);
  return -std::expm1(-beta_ * capacity);
}

double ExponentialAdaptiveContinuum::total_best_effort(double capacity) const {
  return best_effort(capacity) / beta_;
}

double ExponentialAdaptiveContinuum::total_reservation(double capacity) const {
  return reservation(capacity) / beta_;
}

double ExponentialAdaptiveContinuum::bandwidth_gap(double capacity) const {
  check_capacity(capacity);
  // Solve R(C) = B(C+Δ) in complement space, stable for βC ≫ 1 where
  // both utilities round to 1.0:
  //   e^{−βC} = e^{−β(C+Δ)}/(1−a) − (a/(1−a))·e^{−β(C+Δ)/a}
  // ⇔ βΔ = ln(1/(1−a) − (a/(1−a))·e^{−β(C+Δ)(1−a)/a}).
  auto f = [this, capacity](double delta) {
    const double decay =
        std::exp(-beta_ * (capacity + delta) * (1.0 - a_) / a_);
    return beta_ * delta -
           std::log((1.0 - a_ * decay) / (1.0 - a_));
  };
  return solve_gap(
      f, f(0.0),
      {.first_step = std::max(bandwidth_gap_limit() * 2.0, 1.0 / beta_),
       .x_tol = 1e-12, .x_rtol = 1e-12});
}

double ExponentialAdaptiveContinuum::bandwidth_gap_limit() const {
  return -std::log1p(-a_) / beta_;
}

double ExponentialAdaptiveContinuum::capacity_best_effort(double price) const {
  check_price(price);
  // V'_B(C) = (e^{−βC} − e^{−βC/a})/(1−a) = p, on the decreasing branch
  // beyond the peak at C_peak = a·ln(1/a)/(β(1−a)).
  const double c_peak = a_ * std::log(1.0 / a_) / (beta_ * (1.0 - a_));
  auto marginal = [this](double c) {
    return (std::exp(-beta_ * c) - std::exp(-beta_ * c / a_)) / (1.0 - a_);
  };
  if (price >= marginal(c_peak)) return 0.0;
  double hi = std::max(c_peak * 2.0, 1.0 / beta_);
  while (marginal(hi) > price) hi *= 2.0;
  const double c =
      numerics::brent([&](double x) { return marginal(x) - price; }, c_peak, hi,
                      {.x_tol = 1e-12, .x_rtol = 1e-12, .f_tol = 0.0,
                       .max_iterations = 200})
          .x;
  return (total_best_effort(c) - price * c >= 0.0) ? c : 0.0;
}

double ExponentialAdaptiveContinuum::welfare_best_effort(double price) const {
  const double c = capacity_best_effort(price);
  return std::max(0.0, total_best_effort(c) - price * c);
}

double ExponentialAdaptiveContinuum::capacity_reservation(double price) const {
  check_price(price);
  if (price >= 1.0) return 0.0;
  return -std::log(price) / beta_;
}

double ExponentialAdaptiveContinuum::welfare_reservation(double price) const {
  check_price(price);
  if (price >= 1.0) return 0.0;
  return std::max(0.0, (1.0 - price + price * std::log(price)) / beta_);
}

double ExponentialAdaptiveContinuum::equalizing_price_ratio(double price) const {
  check_price(price);
  auto wr = [this](double p_hat) { return welfare_reservation(p_hat); };
  return solve_price_ratio(wr, welfare_best_effort(price), price, 1.0);
}

std::string ExponentialAdaptiveContinuum::name() const {
  return "ExponentialAdaptiveContinuum(beta=" + std::to_string(beta_) +
         ", a=" + std::to_string(a_) + ")";
}

// ---------------------------------------------------------------------------
// AlgebraicRigidContinuum

AlgebraicRigidContinuum::AlgebraicRigidContinuum(double z)
    : z_(z), mean_((z - 1.0) / (z - 2.0)) {
  if (!(z > 2.0)) {
    throw std::invalid_argument("AlgebraicRigidContinuum: z must exceed 2");
  }
}

double AlgebraicRigidContinuum::best_effort(double capacity) const {
  check_capacity(capacity);
  // For C ≤ 1 every configuration (k ≥ 1) leaves each flow under b̂ = 1.
  if (capacity <= 1.0) return 0.0;
  return 1.0 - std::pow(capacity, 2.0 - z_);
}

double AlgebraicRigidContinuum::reservation(double capacity) const {
  check_capacity(capacity);
  // For C ≤ 1 the reservation system admits a mass k_max = C of flows,
  // each at share 1: V_R = C.
  if (capacity <= 1.0) return capacity / mean_;
  return 1.0 - std::pow(capacity, 2.0 - z_) / (z_ - 1.0);
}

double AlgebraicRigidContinuum::total_best_effort(double capacity) const {
  return mean_ * best_effort(capacity);
}

double AlgebraicRigidContinuum::total_reservation(double capacity) const {
  return mean_ * reservation(capacity);
}

double AlgebraicRigidContinuum::bandwidth_gap(double capacity) const {
  check_capacity(capacity);
  if (capacity <= 1.0) return ContinuumModel::bandwidth_gap(capacity);
  // Exact: (C+Δ)^{z−2} = (z−1)·C^{z−2}.
  return capacity * (std::pow(z_ - 1.0, 1.0 / (z_ - 2.0)) - 1.0);
}

double AlgebraicRigidContinuum::capacity_best_effort(double price) const {
  check_price(price);
  const double c = std::pow((z_ - 1.0) / price, 1.0 / (z_ - 1.0));
  if (c <= 1.0) return 0.0;
  return (total_best_effort(c) - price * c >= 0.0) ? c : 0.0;
}

double AlgebraicRigidContinuum::welfare_best_effort(double price) const {
  const double c = capacity_best_effort(price);
  return std::max(0.0, total_best_effort(c) - price * c);
}

double AlgebraicRigidContinuum::capacity_reservation(double price) const {
  check_price(price);
  if (price >= 1.0) return (price > 1.0) ? 0.0 : 1.0;
  return std::pow(price, -1.0 / (z_ - 1.0));
}

double AlgebraicRigidContinuum::welfare_reservation(double price) const {
  check_price(price);
  if (price >= 1.0) return 0.0;
  // W_R = k̄·(1 − p^{(z−2)/(z−1)}).
  return mean_ * (1.0 - std::pow(price, (z_ - 2.0) / (z_ - 1.0)));
}

double AlgebraicRigidContinuum::equalizing_price_ratio(double price) const {
  check_price(price);
  // Exact and price-independent while the best-effort optimum is
  // interior (C_B > 1): γ = (z−1)^{1/(z−2)}.
  if (capacity_best_effort(price) > 1.0) {
    return std::pow(z_ - 1.0, 1.0 / (z_ - 2.0));
  }
  auto wr = [this](double p_hat) { return welfare_reservation(p_hat); };
  return solve_price_ratio(wr, welfare_best_effort(price), price, 1.0);
}

std::string AlgebraicRigidContinuum::name() const {
  return "AlgebraicRigidContinuum(z=" + std::to_string(z_) + ")";
}

// ---------------------------------------------------------------------------
// AlgebraicAdaptiveContinuum

AlgebraicAdaptiveContinuum::AlgebraicAdaptiveContinuum(double z, double floor)
    : z_(z), a_(floor), mean_((z - 1.0) / (z - 2.0)) {
  if (!(z > 2.0)) {
    throw std::invalid_argument("AlgebraicAdaptiveContinuum: z must exceed 2");
  }
  if (!(floor > 0.0) || !(floor < 1.0)) {
    throw std::invalid_argument(
        "AlgebraicAdaptiveContinuum: floor must lie in (0, 1)");
  }
  // 1 − B(C) = g_B·C^{2−z}: g_B = (1 + a(1−a^{z−2})/(1−a))/(z−1).
  g_b_ = (1.0 + a_ * (1.0 - std::pow(a_, z_ - 2.0)) / (1.0 - a_)) / (z_ - 1.0);
}

double AlgebraicAdaptiveContinuum::gap_ratio_power() const {
  return (z_ - 1.0) * g_b_;
}

double AlgebraicAdaptiveContinuum::best_effort(double capacity) const {
  check_capacity(capacity);
  if (capacity <= a_) return 0.0;
  if (capacity < 1.0) {
    // Only configurations with k < C/a deliver utility; support is k ≥ 1.
    const double x = capacity / a_;  // > 1 here
    const double v = (capacity * (1.0 - std::pow(x, 1.0 - z_)) -
                      a_ * (z_ - 1.0) * (1.0 - std::pow(x, 2.0 - z_)) /
                          (z_ - 2.0)) /
                     (1.0 - a_);
    return v / mean_;
  }
  return 1.0 - g_b_ * std::pow(capacity, 2.0 - z_);
}

double AlgebraicAdaptiveContinuum::reservation(double capacity) const {
  check_capacity(capacity);
  if (capacity <= 1.0) return capacity / mean_;
  return 1.0 - std::pow(capacity, 2.0 - z_) / (z_ - 1.0);
}

double AlgebraicAdaptiveContinuum::total_best_effort(double capacity) const {
  return mean_ * best_effort(capacity);
}

double AlgebraicAdaptiveContinuum::total_reservation(double capacity) const {
  return mean_ * reservation(capacity);
}

double AlgebraicAdaptiveContinuum::bandwidth_gap(double capacity) const {
  check_capacity(capacity);
  if (capacity <= 1.0) return ContinuumModel::bandwidth_gap(capacity);
  return capacity * (std::pow(gap_ratio_power(), 1.0 / (z_ - 2.0)) - 1.0);
}

double AlgebraicAdaptiveContinuum::capacity_best_effort(double price) const {
  check_price(price);
  const double c = std::pow((z_ - 1.0) * g_b_ / price, 1.0 / (z_ - 1.0));
  if (c <= 1.0) return 0.0;
  return (total_best_effort(c) - price * c >= 0.0) ? c : 0.0;
}

double AlgebraicAdaptiveContinuum::welfare_best_effort(double price) const {
  const double c = capacity_best_effort(price);
  return std::max(0.0, total_best_effort(c) - price * c);
}

double AlgebraicAdaptiveContinuum::capacity_reservation(double price) const {
  check_price(price);
  if (price >= 1.0) return (price > 1.0) ? 0.0 : 1.0;
  return std::pow(price, -1.0 / (z_ - 1.0));
}

double AlgebraicAdaptiveContinuum::welfare_reservation(double price) const {
  check_price(price);
  if (price >= 1.0) return 0.0;
  return mean_ * (1.0 - std::pow(price, (z_ - 2.0) / (z_ - 1.0)));
}

double AlgebraicAdaptiveContinuum::equalizing_price_ratio(double price) const {
  check_price(price);
  if (capacity_best_effort(price) > 1.0) {
    return std::pow(gap_ratio_power(), 1.0 / (z_ - 2.0));
  }
  auto wr = [this](double p_hat) { return welfare_reservation(p_hat); };
  return solve_price_ratio(wr, welfare_best_effort(price), price, 1.0);
}

std::string AlgebraicAdaptiveContinuum::name() const {
  return "AlgebraicAdaptiveContinuum(z=" + std::to_string(z_) +
         ", a=" + std::to_string(a_) + ")";
}

// ---------------------------------------------------------------------------
// AlgebraicTailUtilityContinuum

AlgebraicTailUtilityContinuum::AlgebraicTailUtilityContinuum(double z, double r)
    : z_(z), r_(r), mean_((z - 1.0) / (z - 2.0)) {
  if (!(z > 2.0)) {
    throw std::invalid_argument("AlgebraicTailUtilityContinuum: z must exceed 2");
  }
  if (!(r > 0.0)) {
    throw std::invalid_argument("AlgebraicTailUtilityContinuum: r must be > 0");
  }
}

double AlgebraicTailUtilityContinuum::optimal_share() const {
  // b* maximising (1 − b^{−r})/b: b*^r = r + 1.
  return std::pow(r_ + 1.0, 1.0 / r_);
}

namespace {

/// ∫_1^X (z−1)·k^{1+r−z} dk, handling the logarithmic case r = z−2.
double power_integral(double z, double r, double x) {
  const double e = 2.0 + r - z;  // exponent of the antiderivative
  if (std::abs(e) < 1e-12) return (z - 1.0) * std::log(x);
  return (z - 1.0) * (std::pow(x, e) - 1.0) / e;
}

}  // namespace

double AlgebraicTailUtilityContinuum::total_best_effort(double capacity) const {
  check_capacity(capacity);
  // Flows have positive utility only when their share C/k > 1, k < C.
  if (capacity <= 1.0) return 0.0;
  // ∫_1^C (z−1)k^{1−z}(1 − (k/C)^r) dk.
  const double head =
      (z_ - 1.0) * (1.0 - std::pow(capacity, 2.0 - z_)) / (z_ - 2.0);
  const double correction =
      std::pow(capacity, -r_) * power_integral(z_, r_, capacity);
  return head - correction;
}

double AlgebraicTailUtilityContinuum::total_reservation(double capacity) const {
  check_capacity(capacity);
  const double bstar = optimal_share();
  const double kmax = capacity / bstar;
  const double pi_star = r_ / (r_ + 1.0);  // π(b*) = 1 − 1/(r+1)
  if (kmax <= 1.0) {
    // Below the support edge the admitted mass is k_max flows at b*.
    return kmax * pi_star;
  }
  const double head =
      (z_ - 1.0) * (1.0 - std::pow(kmax, 2.0 - z_)) / (z_ - 2.0) -
      std::pow(capacity, -r_) * power_integral(z_, r_, kmax);
  const double tail = kmax * pi_star * std::pow(kmax, 1.0 - z_);
  return head + tail;
}

double AlgebraicTailUtilityContinuum::best_effort(double capacity) const {
  return total_best_effort(capacity) / mean_;
}

double AlgebraicTailUtilityContinuum::reservation(double capacity) const {
  return total_reservation(capacity) / mean_;
}

std::string AlgebraicTailUtilityContinuum::name() const {
  return "AlgebraicTailUtilityContinuum(z=" + std::to_string(z_) +
         ", r=" + std::to_string(r_) + ")";
}

}  // namespace bevr::core
