#include "bevr/kernels/load_table.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "bevr/obs/metrics.h"

namespace bevr::kernels {

namespace {

obs::Counter table_builds_counter() {
  static const obs::Counter counter =
      obs::MetricsRegistry::global().counter("kernels/table_builds");
  return counter;
}

// Slot i's double: fetched on its first read and kept, or fetched every
// time past the slots. Zero bits mark an unfilled slot (a +0.0 value is
// fetched again at each read); racing first reads store the same bits.
template <typename Fetch>
double read_slot(std::vector<std::atomic<std::uint64_t>>& slots,
                 std::int64_t i, Fetch fetch) {
  if (i < 0 || i >= static_cast<std::int64_t>(slots.size())) return fetch();
  std::atomic<std::uint64_t>& slot = slots[static_cast<std::size_t>(i)];
  std::uint64_t bits = slot.load(std::memory_order_relaxed);
  if (bits == 0) {
    bits = std::bit_cast<std::uint64_t>(fetch());
    slot.store(bits, std::memory_order_relaxed);
  }
  return std::bit_cast<double>(bits);
}

obs::Counter table_terms_counter() {
  static const obs::Counter counter =
      obs::MetricsRegistry::global().counter("kernels/table_terms");
  return counter;
}

}  // namespace

LoadTable::LoadTable(std::shared_ptr<const dist::DiscreteLoad> load,
                     Options options)
    : load_(std::move(load)) {
  if (!load_) throw std::invalid_argument("LoadTable: null load");
  if (!(options.tail_eps > 0.0) || options.tail_eps >= 1.0) {
    throw std::invalid_argument("LoadTable: tail_eps in (0,1) required");
  }
  if (options.direct_budget < 1024) {
    throw std::invalid_argument("LoadTable: direct_budget too small");
  }
  if (options.tail_table_terms < 0) {
    throw std::invalid_argument("LoadTable: tail_table_terms must be >= 0");
  }

  // Same clamps as VariableLoadModel::flow_utility_between, so the
  // table window is exactly the model's direct-summation window.
  k_lo_ = std::max<std::int64_t>(1, load_->min_support());
  k_exact_ = load_->truncation_point(options.tail_eps);
  k_hi_ = std::min(std::max(k_exact_, k_lo_),
                   k_lo_ + options.direct_budget - 1);

  const auto n = static_cast<std::size_t>(k_hi_ - k_lo_ + 1);
  kd_.resize(n);
  pmf_.resize(n);
  kpmf_.resize(n);
  prefix_sum_.resize(n);
  prefix_comp_.resize(n);
  numerics::KahanSum running;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t k = k_lo_ + static_cast<std::int64_t>(i);
    const double kd = static_cast<double>(k);
    const double p = load_->pmf(k);
    kd_[i] = kd;
    pmf_[i] = p;
    // Left-to-right product, matching the scalar term's rounding:
    // (pmf·kd)·π is then one more rounding step in the evaluator.
    kpmf_[i] = p * kd;
    running.add(kpmf_[i]);
    prefix_sum_[i] = running.raw_sum();
    prefix_comp_[i] = running.compensation();
  }

  const auto tail_n = static_cast<std::size_t>(
      std::min<std::int64_t>(static_cast<std::int64_t>(n),
                             options.tail_table_terms));
  tail_above_ = std::vector<std::atomic<std::uint64_t>>(tail_n);
  partial_mean_above_ = std::vector<std::atomic<std::uint64_t>>(tail_n);

  table_builds_counter().inc();
  table_terms_counter().add(static_cast<std::uint64_t>(n));
}

numerics::KahanSum LoadTable::prefix_mass_state(std::int64_t k) const {
  if (k < k_lo_) return numerics::KahanSum{};
  if (k > k_hi_) {
    throw std::out_of_range("LoadTable::prefix_mass_state: k beyond table");
  }
  const auto i = static_cast<std::size_t>(k - k_lo_);
  return numerics::KahanSum{prefix_sum_[i], prefix_comp_[i]};
}

double LoadTable::tail_above(std::int64_t k) const {
  return read_slot(tail_above_, k - k_lo_,
                   [&] { return load_->tail_above(k); });
}

double LoadTable::partial_mean_above(std::int64_t k) const {
  return read_slot(partial_mean_above_, k - k_lo_,
                   [&] { return load_->partial_mean_above(k); });
}

}  // namespace bevr::kernels
