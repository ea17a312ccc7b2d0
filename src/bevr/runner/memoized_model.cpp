#include "bevr/runner/memoized_model.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

namespace bevr::runner {

namespace {

// Distinct models may share one MemoCache (pooled stats); tag each
// instance so models with different accuracy options never alias.
std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

MemoizedVariableLoad::MemoizedVariableLoad(
    std::shared_ptr<const core::VariableLoadModel> model,
    std::shared_ptr<MemoCache> cache,
    std::shared_ptr<const kernels::SweepEvaluator> kernel)
    : model_(std::move(model)),
      cache_(std::move(cache)),
      kernel_(std::move(kernel)),
      instance_id_(next_instance_id()) {
  if (!model_ || !cache_ || !kernel_) {
    throw std::invalid_argument(
        "MemoizedVariableLoad: model, cache and kernel are all required");
  }
  if (&kernel_->model() != model_.get()) {
    throw std::invalid_argument(
        "MemoizedVariableLoad: kernel wraps a different model");
  }
}

std::optional<std::int64_t> MemoizedVariableLoad::k_max(double capacity) const {
  // Encode nullopt (elastic utility) as -1: k_max is otherwise >= 1,
  // and any int64 in range is exactly representable after the argmax
  // search's own bounds (< 2^53).
  const double packed = cache_->get_or_compute2(
      "kmax", capacity, static_cast<double>(instance_id_), [&] {
        const auto k = kernel_->k_max(capacity);
        return k ? static_cast<double>(*k) : -1.0;
      });
  if (packed < 0.0) return std::nullopt;
  return static_cast<std::int64_t>(packed);
}

double MemoizedVariableLoad::best_effort(double capacity) const {
  return cache_->get_or_compute2(
      "B", capacity, static_cast<double>(instance_id_),
      [&] { return kernel_->best_effort(capacity); });
}

double MemoizedVariableLoad::reservation(double capacity) const {
  return cache_->get_or_compute2(
      "R", capacity, static_cast<double>(instance_id_),
      [&] { return kernel_->reservation(capacity); });
}

// k̄·B and k̄·R as the model computes them, over the memoized B and R.
double MemoizedVariableLoad::total_best_effort(double capacity) const {
  return mean_load() * best_effort(capacity);
}

double MemoizedVariableLoad::total_reservation(double capacity) const {
  return mean_load() * reservation(capacity);
}

double MemoizedVariableLoad::performance_gap(double capacity) const {
  // Same expression the model computes (max(0, R−B)) but over the
  // memoized operands, so δ after B and R costs two cache hits.
  return std::max(0.0, reservation(capacity) - best_effort(capacity));
}

double MemoizedVariableLoad::bandwidth_gap(double capacity) const {
  return cache_->get_or_compute2(
      "Delta", capacity, static_cast<double>(instance_id_),
      [&] {
        return kernel_->bandwidth_gap(capacity, best_effort(capacity),
                                      reservation(capacity));
      });
}

double MemoizedVariableLoad::blocking_fraction(double capacity) const {
  return cache_->get_or_compute2(
      "theta", capacity, static_cast<double>(instance_id_),
      [&] { return kernel_->blocking_fraction(capacity); });
}

void MemoizedVariableLoad::fill_grid(char tag, double lo, double hi, int n,
                                     std::span<double> out) const {
  if (n < 2 || out.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument(
        "MemoizedVariableLoad: grid needs n >= 2 and a matching span");
  }
  const std::scoped_lock lock(grid_mutex_);
  auto [it, fresh] = grid_cache_.try_emplace(std::tuple{tag, lo, hi, n});
  if (fresh) {
    it->second.resize(static_cast<std::size_t>(n));
    // The capacity expression must match the scan in grid_refine_max
    // term for term: x_i = lo + step·i, each through the point memo.
    const double step = (hi - lo) / (n - 1);
    for (int i = 0; i < n; ++i) {
      const double x = lo + step * i;
      it->second[static_cast<std::size_t>(i)] =
          tag == 'B' ? total_best_effort(x) : total_reservation(x);
    }
  }
  std::copy(it->second.begin(), it->second.end(), out.begin());
}

void MemoizedVariableLoad::total_best_effort_grid(double lo, double hi, int n,
                                                  std::span<double> out) const {
  fill_grid('B', lo, hi, n, out);
}

void MemoizedVariableLoad::total_reservation_grid(
    double lo, double hi, int n, std::span<double> out) const {
  fill_grid('R', lo, hi, n, out);
}

}  // namespace bevr::runner
