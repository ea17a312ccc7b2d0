#include "bevr/core/risk_averse.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bevr/core/bandwidth_gap.h"
#include "bevr/core/fixed_load.h"
#include "bevr/numerics/kahan.h"

namespace bevr::core {

RiskAverseModel::RiskAverseModel(
    std::shared_ptr<const dist::DiscreteLoad> load,
    std::shared_ptr<const utility::UtilityFunction> pi, double risk_aversion,
    BlockingRisk blocking_risk)
    : load_(std::move(load)),
      pi_(std::move(pi)),
      lambda_(risk_aversion),
      blocking_risk_(blocking_risk) {
  if (!load_) throw std::invalid_argument("RiskAverseModel: null load");
  if (!pi_) throw std::invalid_argument("RiskAverseModel: null utility");
  if (!(lambda_ >= 0.0)) {
    throw std::invalid_argument("RiskAverseModel: risk_aversion must be >= 0");
  }
  q_ = std::make_shared<dist::SizeBiasedLoad>(load_);
  mean_ = load_->mean();
}

std::optional<std::int64_t> RiskAverseModel::k_max(double capacity) const {
  return core::k_max(*pi_, capacity);
}

RiskAverseModel::Moments RiskAverseModel::best_effort_moments(
    double capacity) const {
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("best_effort_moments: capacity must be >= 0");
  }
  if (capacity == 0.0) return {};
  numerics::KahanSum m1, m2;
  const std::int64_t k_lo = q_->min_support();
  // Dead zone: π(C/k) = 0 once k > C/b0.
  std::int64_t k_cut = std::numeric_limits<std::int64_t>::max();
  const double b0 = pi_->zero_below();
  if (b0 > 0.0) {
    k_cut = static_cast<std::int64_t>(std::floor(capacity / b0)) + 1;
  }
  constexpr std::int64_t kHardCap = 50'000'000;
  for (std::int64_t k = k_lo; k - k_lo < kHardCap && k <= k_cut; ++k) {
    const double v = pi_->value(capacity / static_cast<double>(k));
    const double q = q_->pmf(k);
    m1.add(q * v);
    m2.add(q * v * v);
    if ((k - k_lo) % 512 == 511) {
      // Tail bound: remaining mass ≤ tail_Q(k), value ≤ π(C/k).
      if (q_->tail_above(k) * v < 1e-13 * std::max(m1.value(), 1e-6)) break;
    }
  }
  const double variance = std::max(0.0, m2.value() - m1.value() * m1.value());
  return {1.0, m1.value(), std::sqrt(variance)};
}

RiskAverseModel::Moments RiskAverseModel::reservation_moments(
    double capacity) const {
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("reservation_moments: capacity must be >= 0");
  }
  if (capacity == 0.0) return {};
  const auto kmax_opt = k_max(capacity);
  if (!kmax_opt) return best_effort_moments(capacity);  // elastic
  const std::int64_t kmax = *kmax_opt;
  if (kmax < 1) return {};
  numerics::KahanSum m1, m2;
  for (std::int64_t k = q_->min_support(); k <= kmax; ++k) {
    const double v = pi_->value(capacity / static_cast<double>(k));
    const double q = q_->pmf(k);
    m1.add(q * v);
    m2.add(q * v * v);
  }
  // Flows landing above k_max: admitted (at the capped level) with
  // probability k_max/k₁, blocked otherwise. The moments are
  // conditional on admission; blocked flows experience nothing.
  const double v_cap = pi_->value(capacity / static_cast<double>(kmax));
  const double admit_mass =
      static_cast<double>(kmax) * load_->tail_above(kmax) / mean_;
  m1.add(v_cap * admit_mass);
  m2.add(v_cap * v_cap * admit_mass);
  const double admit_probability =
      std::min(1.0, q_->cdf(kmax) + admit_mass);
  if (admit_probability <= 0.0) return {0.0, 0.0, 0.0};
  const double cond_m1 = m1.value() / admit_probability;
  const double cond_m2 = m2.value() / admit_probability;
  const double variance = std::max(0.0, cond_m2 - cond_m1 * cond_m1);
  return {admit_probability, cond_m1, std::sqrt(variance)};
}

double RiskAverseModel::best_effort(double capacity) const {
  const auto moments = best_effort_moments(capacity);
  return std::max(0.0, moments.mean - lambda_ * moments.stddev);
}

double RiskAverseModel::reservation(double capacity) const {
  const auto moments = reservation_moments(capacity);
  if (blocking_risk_ == BlockingRisk::kConditional) {
    return moments.admission_probability *
           std::max(0.0, moments.mean - lambda_ * moments.stddev);
  }
  // Unconditional: recover the raw moments of π·1[admitted] from the
  // conditional ones (E[X] = P·m, E[X²] = P·(m² + s²)).
  const double p = moments.admission_probability;
  const double m1 = p * moments.mean;
  const double m2 =
      p * (moments.mean * moments.mean + moments.stddev * moments.stddev);
  const double variance = std::max(0.0, m2 - m1 * m1);
  return std::max(0.0, m1 - lambda_ * std::sqrt(variance));
}

double RiskAverseModel::performance_gap(double capacity) const {
  return std::max(0.0, reservation(capacity) - best_effort(capacity));
}

double RiskAverseModel::bandwidth_gap(double capacity) const {
  return core::bandwidth_gap(
      [this](double c) { return best_effort(c); }, capacity,
      best_effort(capacity), reservation(capacity),
      {.first_step = std::max(1.0, 0.25 * mean_), .x_tol = 1e-8,
       .x_rtol = 1e-9});
}

}  // namespace bevr::core
