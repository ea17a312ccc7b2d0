#include "bevr/kernels/sweep_evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "bevr/core/bandwidth_gap.h"
#include "bevr/core/series_tail.h"

namespace bevr::kernels {

namespace {

// Reusable per-thread scratch for the batched path. Shared across
// evaluators on purpose: resize() only ever grows capacity, so after
// the first sweep the hot loop performs no allocations at all.
struct Workspace {
  std::vector<double> shares;
  std::vector<double> values;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

std::optional<double> detect_indicator(const utility::UtilityFunction& pi) {
  if (const auto* rigid = dynamic_cast<const utility::Rigid*>(&pi)) {
    return rigid->requirement();
  }
  if (const auto* pwl = dynamic_cast<const utility::PiecewiseLinear*>(&pi)) {
    // floor >= 1 degenerates to a step at b = 1 (value() returns only
    // 0 or 1 there); the genuine ramp case has no indicator shortcut.
    if (pwl->floor() >= 1.0) return 1.0;
  }
  return std::nullopt;
}

// Content fingerprint for batch_key(): FNV-1a over the exact bit
// patterns of probed model values. name() strings print only six
// decimals, so the probes carry the discrimination between models
// whose parameters agree to printing precision but not bitwise.
class Fnv1a {
 public:
  void mix(double value) { mix_bits(std::bit_cast<std::uint64_t>(value)); }
  void mix_bits(std::uint64_t bits) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= (bits >> shift) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string make_batch_key(const core::VariableLoadModel& model,
                           const dist::DiscreteLoad& load,
                           const utility::UtilityFunction& pi) {
  Fnv1a fp;
  fp.mix(load.mean());
  const std::int64_t k0 = load.min_support();
  fp.mix_bits(static_cast<std::uint64_t>(k0));
  for (const std::int64_t dk : {0, 1, 2, 7, 31, 127, 1023}) {
    fp.mix(load.pmf(k0 + dk));
    fp.mix(load.tail_above(k0 + dk));
  }
  fp.mix(pi.zero_below());
  for (const double b : {0.125, 0.5, 0.97, 1.0, 1.5, 4.0, 64.0}) {
    fp.mix(pi.value(b));
  }
  fp.mix(model.options().tail_eps);
  fp.mix_bits(static_cast<std::uint64_t>(model.options().direct_budget));

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fp.hash()));
  return load.name() + "|" + pi.name() + "|#" + hex;
}

}  // namespace

SweepEvaluator::SweepEvaluator(
    std::shared_ptr<const core::VariableLoadModel> model)
    : model_(std::move(model)),
      load_(model_ ? model_->load_ptr() : nullptr),
      pi_(model_ ? model_->util_ptr() : nullptr),
      table_(load_, model_ ? LoadTable::Options{
                                 .tail_eps = model_->options().tail_eps,
                                 .direct_budget =
                                     model_->options().direct_budget,
                             }
                           : LoadTable::Options{}) {
  if (!model_) throw std::invalid_argument("SweepEvaluator: null model");
  mean_ = model_->mean_load();
  b0_ = pi_->zero_below();
  direct_budget_ = model_->options().direct_budget;
  head_terms_ = core::hybrid_head_terms(*pi_, direct_budget_);
  indicator_threshold_ = detect_indicator(*pi_);
  batch_key_ = make_batch_key(*model_, *load_, *pi_);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  batch_terms_ = registry.counter("kernels/batch_terms");
  batch_calls_ = registry.counter("kernels/batch_calls");
  prefix_hits_ = registry.counter("kernels/prefix_hits");
  tail_calls_ = registry.counter("kernels/tail_calls");
  tail_evaluations_ = registry.counter("kernels/tail_evaluations");
}

numerics::KahanSum SweepEvaluator::direct_sum_state(double capacity,
                                                    std::int64_t k_lo,
                                                    std::int64_t k_hi) const {
  if (indicator_threshold_) {
    // π(C/k) is an indicator: 1 while C/k >= threshold, 0 after. The
    // scalar loop's terms are kpmf(k)·1.0 (== kpmf(k), multiplication
    // by 1.0 is exact) up to the step and kpmf(k)·0.0 (== +0.0, a
    // Neumaier no-op) beyond it, so its final accumulator state is the
    // stored prefix state at the step boundary. Find the boundary by
    // binary search on the same floating-point predicate value() uses:
    // C/kd nonincreasing in k ⇒ the predicate is monotone.
    const double threshold = *indicator_threshold_;
    const std::span<const double> kd = table_.kd();
    const auto lo_index = static_cast<std::size_t>(k_lo - table_.k_lo());
    const auto hi_index = static_cast<std::size_t>(k_hi - table_.k_lo());
    std::size_t lo = lo_index;
    std::size_t hi = hi_index + 1;  // half-open: first index failing
    if (!(capacity / kd[lo_index] >= threshold)) {
      hi = lo_index;  // even the first share is below the step
    } else {
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (capacity / kd[mid] >= threshold) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
    prefix_hits_.inc();
    if (hi == lo_index) return numerics::KahanSum{};
    const std::int64_t k_step =
        table_.k_lo() + static_cast<std::int64_t>(hi) - 1;
    return table_.prefix_mass_state(std::min(k_step, k_hi));
  }

  const auto offset = static_cast<std::size_t>(k_lo - table_.k_lo());
  const auto n = static_cast<std::size_t>(k_hi - k_lo + 1);
  Workspace& ws = workspace();
  if (ws.shares.size() < n) {
    ws.shares.resize(n);
    ws.values.resize(n);
  }
  const std::span<const double> kd = table_.kd().subspan(offset, n);
  const std::span<double> shares(ws.shares.data(), n);
  const std::span<double> values(ws.values.data(), n);
  for (std::size_t i = 0; i < n; ++i) shares[i] = capacity / kd[i];
  pi_->value_batch(shares, values);
  const std::span<const double> kpmf = table_.kpmf().subspan(offset, n);
  numerics::KahanSum sum;
  // Same order, same associativity as the scalar loop: term(k) is
  // (pmf·kd)·π with the (pmf·kd) rounding frozen into the table.
  for (std::size_t i = 0; i < n; ++i) sum.add(kpmf[i] * values[i]);
  batch_calls_.inc();
  batch_terms_.add(static_cast<std::uint64_t>(n));
  return sum;
}

double SweepEvaluator::flow_utility_between(double capacity,
                                            std::int64_t k_lo,
                                            std::int64_t k_hi) const {
  // Clamp-for-clamp mirror of VariableLoadModel::flow_utility_between.
  if (capacity <= 0.0) return 0.0;
  k_lo = std::max<std::int64_t>(std::max<std::int64_t>(k_lo, 1),
                                load_->min_support());
  if (b0_ > 0.0) {
    const auto cutoff =
        static_cast<std::int64_t>(std::floor(capacity / b0_)) + 1;
    k_hi = std::min(k_hi, cutoff);
  }
  const std::int64_t k_exact = table_.k_exact();
  k_hi = std::min(k_hi, std::max(k_exact, k_lo));
  if (k_hi < k_lo) return 0.0;
  if (k_lo != table_.k_lo()) {
    // Every caller starts the series at min_support; a different start
    // would invalidate the prefix tables.
    throw std::logic_error("SweepEvaluator: series start off the table");
  }

  const std::int64_t count = k_hi - k_lo + 1;
  if (count <= direct_budget_) {
    return direct_sum_state(capacity, k_lo, k_hi).value();
  }

  // Hybrid: table-backed head, then the scalar path's own tail helper,
  // resumed into the same accumulator state.
  const std::int64_t k_direct = k_lo + head_terms_ - 1;
  numerics::KahanSum sum = direct_sum_state(capacity, k_lo, k_direct);
  const auto k_last =
      (k_hi >= k_exact) ? std::nullopt : std::optional<std::int64_t>(k_hi);
  const auto tail = core::series_tail(*load_, *pi_, capacity, k_direct,
                                      k_last, sum.value());
  tail_calls_.inc();
  tail_evaluations_.add(static_cast<std::uint64_t>(tail.evaluations));
  sum.add(tail.value);
  return sum.value();
}

std::optional<std::int64_t> SweepEvaluator::k_max(double capacity) const {
  return kmax_.k_max(*pi_, capacity);
}

double SweepEvaluator::best_effort(double capacity) const {
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("best_effort: capacity must be >= 0");
  }
  if (capacity == 0.0) return 0.0;
  return flow_utility_between(capacity, load_->min_support(),
                              std::numeric_limits<std::int64_t>::max()) /
         mean_;
}

double SweepEvaluator::reservation(double capacity) const {
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("reservation: capacity must be >= 0");
  }
  if (capacity == 0.0) return 0.0;
  const auto kmax = k_max(capacity);
  if (!kmax) return best_effort(capacity);
  if (*kmax < std::max<std::int64_t>(1, load_->min_support())) return 0.0;
  const double head =
      flow_utility_between(capacity, load_->min_support(), *kmax);
  const double kd = static_cast<double>(*kmax);
  const double tail =
      kd * pi_->value(capacity / kd) * table_.tail_above(*kmax);
  return (head + tail) / mean_;
}

double SweepEvaluator::performance_gap(double capacity) const {
  return std::max(0.0, reservation(capacity) - best_effort(capacity));
}

double SweepEvaluator::bandwidth_gap(double capacity) const {
  return bandwidth_gap(capacity, best_effort(capacity), reservation(capacity));
}

double SweepEvaluator::bandwidth_gap(double capacity, double best_effort_c,
                                     double reservation_c) const {
  // The scalar model's search; since best_effort returns identical
  // doubles, the solver takes the identical iterate sequence.
  return core::bandwidth_gap([this](double c) { return best_effort(c); },
                             capacity, best_effort_c, reservation_c,
                             {.first_step = std::max(1.0, 0.25 * mean_)});
}

double SweepEvaluator::blocking_fraction(double capacity) const {
  const auto kmax = k_max(capacity);
  if (!kmax) return 0.0;
  if (*kmax < 1) return 1.0;
  const double kd = static_cast<double>(*kmax);
  const double blocked_mass =
      table_.partial_mean_above(*kmax) - kd * table_.tail_above(*kmax);
  return std::clamp(blocked_mass / mean_, 0.0, 1.0);
}

std::vector<SweepEvaluator::Row> SweepEvaluator::evaluate_grid(
    std::span<const double> capacities, bool with_bandwidth_gap) const {
  std::vector<Row> rows(capacities.size());
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    const double c = capacities[i];
    Row& row = rows[i];
    row.capacity = c;
    row.best_effort = best_effort(c);
    row.reservation = reservation(c);
    row.performance_gap = std::max(0.0, row.reservation - row.best_effort);
    if (with_bandwidth_gap) {
      row.bandwidth_gap = bandwidth_gap(c, row.best_effort, row.reservation);
    }
    const auto kmax = k_max(c);
    row.k_max = kmax ? static_cast<double>(*kmax) : -1.0;
    row.blocking = blocking_fraction(c);
  }
  return rows;
}

}  // namespace bevr::kernels
