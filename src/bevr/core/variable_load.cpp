#include "bevr/core/variable_load.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bevr/core/bandwidth_gap.h"
#include "bevr/core/fixed_load.h"
#include "bevr/core/series_tail.h"
#include "bevr/numerics/kahan.h"

namespace bevr::core {

VariableLoadModel::VariableLoadModel(
    std::shared_ptr<const dist::DiscreteLoad> load,
    std::shared_ptr<const utility::UtilityFunction> pi, Options options)
    : load_(std::move(load)), pi_(std::move(pi)), options_(options) {
  if (!load_) throw std::invalid_argument("VariableLoadModel: null load");
  if (!pi_) throw std::invalid_argument("VariableLoadModel: null utility");
  if (!(options_.tail_eps > 0.0) || options_.tail_eps >= 1.0) {
    throw std::invalid_argument("VariableLoadModel: tail_eps in (0,1) required");
  }
  if (options_.direct_budget < 1024) {
    throw std::invalid_argument("VariableLoadModel: direct_budget too small");
  }
  mean_ = load_->mean();
  if (!(mean_ > 0.0) || !std::isfinite(mean_)) {
    throw std::invalid_argument("VariableLoadModel: load mean must be finite");
  }
  // Hoisted out of flow_utility_between: the exact-tail truncation point
  // depends only on (load, tail_eps), never on capacity.
  k_exact_ = load_->truncation_point(options_.tail_eps);
}

std::optional<std::int64_t> VariableLoadModel::k_max(double capacity) const {
  return core::k_max(*pi_, capacity);
}

double VariableLoadModel::flow_utility_between(double capacity,
                                               std::int64_t k_lo,
                                               std::int64_t k_hi) const {
  if (capacity <= 0.0) return 0.0;
  k_lo = std::max<std::int64_t>(std::max<std::int64_t>(k_lo, 1),
                                load_->min_support());
  // Terms vanish for shares below the utility's dead zone: k > C/b0.
  const double b0 = pi_->zero_below();
  if (b0 > 0.0) {
    const auto cutoff =
        static_cast<std::int64_t>(std::floor(capacity / b0)) + 1;
    k_hi = std::min(k_hi, cutoff);
  }
  // Beyond the exact-tail point the remaining mass is negligible.
  const std::int64_t k_exact = k_exact_;
  k_hi = std::min(k_hi, std::max(k_exact, k_lo));
  if (k_hi < k_lo) return 0.0;

  auto term = [this, capacity](std::int64_t k) {
    const double kd = static_cast<double>(k);
    return load_->pmf(k) * kd * pi_->value(capacity / kd);
  };

  const std::int64_t count = k_hi - k_lo + 1;
  numerics::KahanSum sum;
  if (count <= options_.direct_budget) {
    for (std::int64_t k = k_lo; k <= k_hi; ++k) sum.add(term(k));
    return sum.value();
  }

  // Hybrid: direct summation over the head, the Euler–Maclaurin tail of
  // series_tail.h over the rest.
  const std::int64_t k_direct =
      k_lo + hybrid_head_terms(*pi_, options_.direct_budget) - 1;
  for (std::int64_t k = k_lo; k <= k_direct; ++k) sum.add(term(k));
  const auto k_last =
      (k_hi >= k_exact) ? std::nullopt : std::optional<std::int64_t>(k_hi);
  sum.add(series_tail(*load_, *pi_, capacity, k_direct, k_last, sum.value())
              .value);
  return sum.value();
}

double VariableLoadModel::best_effort(double capacity) const {
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("best_effort: capacity must be >= 0");
  }
  if (capacity == 0.0) return 0.0;
  return flow_utility_between(capacity, load_->min_support(),
                              std::numeric_limits<std::int64_t>::max()) /
         mean_;
}

double VariableLoadModel::reservation(double capacity) const {
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("reservation: capacity must be >= 0");
  }
  if (capacity == 0.0) return 0.0;
  const auto kmax = k_max(capacity);
  if (!kmax) {
    // Elastic utility: admission control never helps; R coincides with B.
    return best_effort(capacity);
  }
  if (*kmax < std::max<std::int64_t>(1, load_->min_support())) return 0.0;
  const double head = flow_utility_between(capacity, load_->min_support(), *kmax);
  const double kd = static_cast<double>(*kmax);
  const double tail = kd * pi_->value(capacity / kd) * load_->tail_above(*kmax);
  return (head + tail) / mean_;
}

double VariableLoadModel::total_best_effort(double capacity) const {
  return mean_ * best_effort(capacity);
}

double VariableLoadModel::total_reservation(double capacity) const {
  return mean_ * reservation(capacity);
}

double VariableLoadModel::performance_gap(double capacity) const {
  return std::max(0.0, reservation(capacity) - best_effort(capacity));
}

double VariableLoadModel::bandwidth_gap(double capacity) const {
  return core::bandwidth_gap([this](double c) { return best_effort(c); },
                             capacity, best_effort(capacity),
                             reservation(capacity),
                             {.first_step = std::max(1.0, 0.25 * mean_)});
}

double VariableLoadModel::blocking_fraction(double capacity) const {
  const auto kmax = k_max(capacity);
  if (!kmax) return 0.0;  // elastic: nothing is ever denied
  if (*kmax < 1) return 1.0;
  const double kd = static_cast<double>(*kmax);
  const double blocked_mass =
      load_->partial_mean_above(*kmax) - kd * load_->tail_above(*kmax);
  return std::clamp(blocked_mass / mean_, 0.0, 1.0);
}

}  // namespace bevr::core
