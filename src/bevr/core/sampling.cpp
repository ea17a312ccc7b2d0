#include "bevr/core/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bevr/core/bandwidth_gap.h"
#include "bevr/core/fixed_load.h"
#include "bevr/numerics/kahan.h"

namespace bevr::core {

SamplingModel::SamplingModel(std::shared_ptr<const dist::DiscreteLoad> load,
                             std::shared_ptr<const utility::UtilityFunction> pi,
                             int samples)
    : load_(std::move(load)), pi_(std::move(pi)), samples_(samples) {
  if (!load_) throw std::invalid_argument("SamplingModel: null load");
  if (!pi_) throw std::invalid_argument("SamplingModel: null utility");
  if (samples_ < 1) throw std::invalid_argument("SamplingModel: samples >= 1");
  q_ = std::make_shared<dist::SizeBiasedLoad>(load_);
  mean_ = load_->mean();
}

void SamplingModel::set_admission_limit(std::optional<std::int64_t> limit) {
  if (limit && *limit < 1) {
    throw std::invalid_argument("SamplingModel: admission limit must be >= 1");
  }
  admission_override_ = limit;
}

std::optional<std::int64_t> SamplingModel::k_max(double capacity) const {
  if (admission_override_) return admission_override_;
  return core::k_max(*pi_, capacity);
}

double SamplingModel::best_effort(double capacity) const {
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("best_effort: capacity must be >= 0");
  }
  if (capacity == 0.0) return 0.0;
  const double s = static_cast<double>(samples_);
  const std::int64_t k_lo = q_->min_support();
  // Dead zone: π(C/k) = 0 for k > C/b0.
  std::int64_t k_cut = std::numeric_limits<std::int64_t>::max();
  const double b0 = pi_->zero_below();
  if (b0 > 0.0) {
    k_cut = static_cast<std::int64_t>(std::floor(capacity / b0)) + 1;
  }

  numerics::KahanSum sum;
  numerics::KahanSum f_acc;  // running F_Q(k)
  double w_prev = 0.0;       // F_Q(k-1)^S
  constexpr std::int64_t kHardCap = 50'000'000;
  for (std::int64_t k = k_lo; k - k_lo < kHardCap; ++k) {
    f_acc.add(q_->pmf(k));
    const double f = std::min(1.0, f_acc.value());
    const double w = std::pow(f, s);
    if (k <= k_cut) {
      sum.add((w - w_prev) * pi_->value(capacity / static_cast<double>(k)));
    }
    w_prev = w;
    if (k > k_cut) break;
    // Periodically bound the neglected tail with the exact Q tail:
    // remaining ≤ S·(1−F(k))·π(C/(k+1)) (π decreasing in k).
    if ((k - k_lo) % 512 == 511) {
      const double tail_bound =
          s * q_->tail_above(k) * pi_->value(capacity / static_cast<double>(k));
      if (tail_bound < 1e-13 * std::max(sum.value(), 1e-6)) break;
    }
  }
  return sum.value();
}

double SamplingModel::reservation(double capacity) const {
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("reservation: capacity must be >= 0");
  }
  if (capacity == 0.0) return 0.0;
  const auto kmax_opt = k_max(capacity);
  if (!kmax_opt) return best_effort(capacity);  // elastic: no admission control
  const std::int64_t kmax = *kmax_opt;
  if (kmax < 1) return 0.0;
  const double kmax_d = static_cast<double>(kmax);
  const double pi_cap = pi_->value(capacity / kmax_d);

  // Flows whose first sample lands at or above k_max: admitted with
  // probability k_max/k₁ and then always see the capped load k_max.
  //   Σ_{k₁ ≥ kmax} Q(k₁)·(kmax/k₁)·π(C/kmax)
  //     = π(C/kmax)·kmax·P[K ≥ kmax]/k̄.
  const double tail_part =
      pi_cap * kmax_d * load_->tail_above(kmax - 1) / mean_;

  const std::int64_t m0 = q_->min_support();
  if (kmax - 1 < m0) return tail_part;

  // Head: first sample k₁ < k_max (admitted with probability 1).
  // E(k₁) = W(k₁)·π(C/k₁) + Σ_{m=k₁+1}^{kmax-1} (W(m)−W(m−1))·π(C/m)
  //         + (1 − W(kmax−1))·π(C/kmax),   W(j) = F_Q(j)^{S−1}.
  const auto n = static_cast<std::size_t>(kmax - m0);  // entries m0..kmax-1
  std::vector<double> q_pmf(n), w(n), pi_val(n);
  const double s1 = static_cast<double>(samples_ - 1);
  numerics::KahanSum f_acc;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t k = m0 + static_cast<std::int64_t>(i);
    q_pmf[i] = q_->pmf(k);
    f_acc.add(q_pmf[i]);
    const double f = std::min(1.0, f_acc.value());
    // 0^0 = 1 makes the S = 1 case collapse to W ≡ 1 as required.
    w[i] = (samples_ == 1) ? 1.0 : std::pow(f, s1);
    pi_val[i] = pi_->value(capacity / static_cast<double>(k));
  }
  // Suffix sums T(k₁) = Σ_{m>k₁}^{kmax-1} (W(m)−W(m−1))·π(C/m).
  std::vector<double> t(n + 1, 0.0);
  for (std::size_t i = n; i-- > 1;) {
    t[i] = t[i + 1] + (w[i] - w[i - 1]) * pi_val[i];
  }
  const double cap_term = (1.0 - w[n - 1]) * pi_cap;
  numerics::KahanSum head;
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = w[i] * pi_val[i] + t[i + 1] + cap_term;
    head.add(q_pmf[i] * expected);
  }
  return head.value() + tail_part;
}

double SamplingModel::performance_gap(double capacity) const {
  return std::max(0.0, reservation(capacity) - best_effort(capacity));
}

double SamplingModel::bandwidth_gap(double capacity) const {
  return core::bandwidth_gap(
      [this](double c) { return best_effort(c); }, capacity,
      best_effort(capacity), reservation(capacity),
      {.first_step = std::max(1.0, 0.25 * mean_), .x_tol = 1e-8,
       .x_rtol = 1e-9});
}

double SamplingModel::total_best_effort(double capacity) const {
  return mean_ * best_effort(capacity);
}

double SamplingModel::total_reservation(double capacity) const {
  return mean_ * reservation(capacity);
}

}  // namespace bevr::core
