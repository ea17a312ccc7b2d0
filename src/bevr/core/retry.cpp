#include "bevr/core/retry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bevr/core/bandwidth_gap.h"
#include "bevr/numerics/roots.h"

namespace bevr::core {

RetryModel::RetryModel(LoadFactory factory, double base_mean,
                       std::shared_ptr<const utility::UtilityFunction> pi,
                       double alpha)
    : factory_(std::move(factory)),
      base_mean_(base_mean),
      pi_(std::move(pi)),
      alpha_(alpha) {
  if (!factory_) throw std::invalid_argument("RetryModel: null factory");
  if (!pi_) throw std::invalid_argument("RetryModel: null utility");
  if (!(base_mean > 0.0)) {
    throw std::invalid_argument("RetryModel: base_mean must be > 0");
  }
  if (!(alpha >= 0.0)) {
    throw std::invalid_argument("RetryModel: alpha must be >= 0");
  }
  base_model_ =
      std::make_shared<VariableLoadModel>(factory_(base_mean_), pi_);
}

RetryModel::Solution RetryModel::solve(double capacity) const {
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("RetryModel::solve: capacity must be >= 0");
  }
  if (capacity == 0.0) {
    // No capacity: nothing is ever admitted, retries never resolve.
    Solution zero;
    zero.feasible = false;
    zero.utility = -std::numeric_limits<double>::infinity();
    return zero;
  }
  // Carried mass at offered mean m: m·(1 − θ_m(C)) = E[min(K_m, k_max)].
  auto carried = [this, capacity](double m) {
    const VariableLoadModel model(factory_(m), pi_);
    return m * (1.0 - model.blocking_fraction(capacity));
  };
  Solution solution;
  const double at_base = carried(base_mean_);
  if (at_base >= base_mean_) {
    // No blocking at all: the basic model applies unchanged.
    solution.feasible = true;
    solution.inflated_mean = base_mean_;
    const VariableLoadModel model(factory_(base_mean_), pi_);
    solution.blocking = model.blocking_fraction(capacity);
    solution.retries = 0.0;
    solution.utility = model.reservation(capacity);
    return solution;
  }
  // Expand upward looking for a mean that carries the base arrivals.
  double hi = 2.0 * base_mean_;
  double at_hi = carried(hi);
  constexpr double kMeanCap = 1e7;
  while (at_hi < base_mean_) {
    hi *= 2.0;
    if (hi > kMeanCap) {
      // Carried mass saturates below the arrival rate: retries pile up
      // without bound; the system has no stationary regime.
      solution.feasible = false;
      solution.utility = -std::numeric_limits<double>::infinity();
      return solution;
    }
    at_hi = carried(hi);
  }
  const auto root = numerics::brent(
      [&carried, this](double m) { return carried(m) - base_mean_; },
      {base_mean_, hi, at_base - base_mean_, at_hi - base_mean_},
      {.x_tol = 1e-9, .x_rtol = 1e-10, .f_tol = 0.0, .max_iterations = 200});
  const double inflated = root.x;
  const VariableLoadModel model(factory_(inflated), pi_);
  solution.feasible = true;
  solution.inflated_mean = inflated;
  solution.blocking = model.blocking_fraction(capacity);
  solution.retries = (inflated - base_mean_) / base_mean_;
  // R̃ = (L̂/L)·R_{L̂}(C) − α·D: total delivered utility per original flow,
  // minus the retry penalties.
  solution.utility = (inflated / base_mean_) * model.reservation(capacity) -
                     alpha_ * solution.retries;
  return solution;
}

double RetryModel::reservation(double capacity) const {
  return solve(capacity).utility;
}

double RetryModel::best_effort(double capacity) const {
  return base_model_->best_effort(capacity);
}

double RetryModel::performance_gap(double capacity) const {
  const double r = reservation(capacity);
  if (!std::isfinite(r)) return 0.0;
  return std::max(0.0, r - best_effort(capacity));
}

double RetryModel::bandwidth_gap(double capacity) const {
  const double target = reservation(capacity);
  if (!std::isfinite(target)) return 0.0;
  return core::bandwidth_gap(
      [this](double c) { return best_effort(c); }, capacity,
      best_effort(capacity), target,
      {.first_step = std::max(1.0, 0.25 * base_mean_)});
}

double RetryModel::total_best_effort(double capacity) const {
  return base_mean_ * best_effort(capacity);
}

double RetryModel::total_reservation(double capacity) const {
  const double r = reservation(capacity);
  return std::isfinite(r) ? base_mean_ * r
                          : -std::numeric_limits<double>::infinity();
}

}  // namespace bevr::core
