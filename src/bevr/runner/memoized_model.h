// Memoizing façade over the discrete variable-load model: the one
// stack (MemoCache → MemoizedVariableLoad → kernels::SweepEvaluator)
// through which the runner and the service evaluate a variable-load
// point.
//
// Guarantees: every accessor returns a value bitwise-equal to the
// underlying model's (misses are computed by the SweepEvaluator, whose
// equivalence contract is bit-identity with the VariableLoadModel it
// wraps, and the cache stores results, never approximations), and all
// methods are safe to call concurrently (the model and evaluator are
// const after construction; the cache is internally locked).
// The big wins in practice:
//  * k_max(C) — one integer argmax shared by B, R, δ and blocking at
//    the same capacity, and by the Δ(C) root solve probing R(C);
//  * total_* — the welfare maximiser's dense V(C) grids overlap
//    heavily across neighbouring prices and nested scan ranges;
//  * bandwidth_gap — Δ at a repeated capacity is a whole root solve.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "bevr/core/variable_load.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/runner/memo_cache.h"

namespace bevr::runner {

class MemoizedVariableLoad {
 public:
  /// Cache misses are computed by `kernel`, which must wrap `model`
  /// itself. `cache` may be shared across models for pooled
  /// statistics. Throws std::invalid_argument for a null model, cache
  /// or kernel, or a kernel built over another model.
  MemoizedVariableLoad(
      std::shared_ptr<const core::VariableLoadModel> model,
      std::shared_ptr<MemoCache> cache,
      std::shared_ptr<const kernels::SweepEvaluator> kernel);

  [[nodiscard]] double mean_load() const { return model_->mean_load(); }
  [[nodiscard]] std::optional<std::int64_t> k_max(double capacity) const;
  [[nodiscard]] double best_effort(double capacity) const;
  [[nodiscard]] double reservation(double capacity) const;
  [[nodiscard]] double total_best_effort(double capacity) const;
  [[nodiscard]] double total_reservation(double capacity) const;
  [[nodiscard]] double performance_gap(double capacity) const;
  [[nodiscard]] double bandwidth_gap(double capacity) const;
  [[nodiscard]] double blocking_fraction(double capacity) const;

  /// Bulk total-utility evaluation over the equally spaced grid
  /// lo + step·i, step = (hi − lo)/(n − 1) — the welfare maximiser's
  /// scan stage (numerics::GridEvalFn contract). out[i] receives the
  /// exact double the scalar accessor returns, through that accessor's
  /// memo. Whole grids are also cached by (lo, hi, n): the maximiser
  /// re-scans the same grid once per root-solve iterate, so after the
  /// first fill every scan is a flat-vector copy.
  void total_best_effort_grid(double lo, double hi, int n,
                              std::span<double> out) const;
  void total_reservation_grid(double lo, double hi, int n,
                              std::span<double> out) const;

  [[nodiscard]] const core::VariableLoadModel& model() const { return *model_; }

  /// The kernel evaluator computing cache misses.
  [[nodiscard]] const kernels::SweepEvaluator& kernel() const {
    return *kernel_;
  }

 private:
  /// Shared fill-then-copy helper for the *_grid accessors.
  void fill_grid(char tag, double lo, double hi, int n,
                 std::span<double> out) const;

  std::shared_ptr<const core::VariableLoadModel> model_;
  std::shared_ptr<MemoCache> cache_;
  std::shared_ptr<const kernels::SweepEvaluator> kernel_;
  std::uint64_t instance_id_;  ///< disambiguates models sharing a cache
  /// Whole-grid memo for the *_grid accessors, keyed by (tag, lo, hi,
  /// n). Tiny (a handful of distinct grids per run), so an ordered map
  /// under one mutex beats anything fancier.
  mutable std::mutex grid_mutex_;
  mutable std::map<std::tuple<char, double, double, int>,
                   std::vector<double>>
      grid_cache_;
};

}  // namespace bevr::runner
