// Batched sweep evaluation of the variable-load model.
//
// A SweepEvaluator answers the same questions as a VariableLoadModel —
// B(C), R(C), δ(C), Δ(C), θ(C), k_max(C) — but is built for dense
// sorted sweeps instead of isolated points:
//
//  * the load side of every series term comes from a LoadTable
//    (contiguous k·pmf(k) doubles built once, no virtuals in the loop);
//  * the utility side is one value_batch call per evaluation over a
//    reusable thread-local buffer (zero allocations in steady state),
//    or — for step utilities — an O(log) boundary search plus an O(1)
//    Kahan prefix lookup instead of any loop at all;
//  * k_max(C) warm-starts from the previous grid point via WarmKmax.
//
// Equivalence contract: every accessor reproduces the corresponding
// VariableLoadModel result *bit-identically* on this build — the
// kernels reorder no floating-point operation, they only change where
// the operands come from (tables instead of virtual calls) and resume
// compensated sums from stored accumulator states. Equivalence tests
// assert exact equality; the documented external tolerance is 1e-12
// relative, headroom for toolchains that contract a*b+c into fma in
// one translation unit but not the other.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bevr/core/variable_load.h"
#include "bevr/kernels/load_table.h"
#include "bevr/kernels/warm_kmax.h"
#include "bevr/obs/metrics.h"

namespace bevr::kernels {

class SweepEvaluator {
 public:
  /// Wraps an existing model; the table is built here, sized by the
  /// model's own Options so both paths sum the identical window.
  explicit SweepEvaluator(
      std::shared_ptr<const core::VariableLoadModel> model);

  /// Point API, mirroring VariableLoadModel's B, R, δ, Δ and θ (totals
  /// are k̄·B and k̄·R of these).
  [[nodiscard]] double mean_load() const { return model_->mean_load(); }
  [[nodiscard]] std::optional<std::int64_t> k_max(double capacity) const;
  [[nodiscard]] double best_effort(double capacity) const;
  [[nodiscard]] double reservation(double capacity) const;
  [[nodiscard]] double performance_gap(double capacity) const;
  [[nodiscard]] double bandwidth_gap(double capacity) const;
  /// Δ(C) for a caller already holding this capacity's B(C) and R(C),
  /// so no series at C is summed again.
  [[nodiscard]] double bandwidth_gap(double capacity, double best_effort_c,
                                     double reservation_c) const;
  [[nodiscard]] double blocking_fraction(double capacity) const;

  /// One row of a whole-grid evaluation.
  struct Row {
    double capacity = 0.0;
    double best_effort = 0.0;
    double reservation = 0.0;
    double performance_gap = 0.0;
    double bandwidth_gap = 0.0;  ///< only when with_bandwidth_gap
    double k_max = -1.0;         ///< −1 encodes "elastic: no threshold"
    double blocking = 0.0;
  };

  /// Evaluate every column across a sorted capacity grid in one call.
  /// Sorted order is what makes the k_max warm start pay; unsorted
  /// grids are still correct, just colder.
  [[nodiscard]] std::vector<Row> evaluate_grid(
      std::span<const double> capacities, bool with_bandwidth_gap) const;

  [[nodiscard]] const core::VariableLoadModel& model() const {
    return *model_;
  }
  [[nodiscard]] const LoadTable& table() const { return table_; }

  /// Identity of the evaluation this kernel performs, for request
  /// batching/coalescing layers: two evaluators with equal batch keys
  /// answer every query bit-identically, so their requests may share
  /// one evaluate_grid call. The key combines the load's and utility's
  /// parameterised names, the accuracy options, and a fingerprint
  /// hashed from exact probed values (pmf, tails, π at fixed points) —
  /// the probes discriminate models whose printed names round to the
  /// same digits.
  [[nodiscard]] const std::string& batch_key() const { return batch_key_; }

 private:
  /// Mirror of VariableLoadModel::flow_utility_between on table data.
  [[nodiscard]] double flow_utility_between(double capacity,
                                            std::int64_t k_lo,
                                            std::int64_t k_hi) const;
  /// Accumulator state of the direct sum over [k_lo, k_hi] (both within
  /// the table window); returned as state, not value, so the hybrid
  /// path can keep adding the integral tail into the same compensation.
  [[nodiscard]] numerics::KahanSum direct_sum_state(double capacity,
                                                    std::int64_t k_lo,
                                                    std::int64_t k_hi) const;

  std::shared_ptr<const core::VariableLoadModel> model_;
  std::shared_ptr<const dist::DiscreteLoad> load_;
  std::shared_ptr<const utility::UtilityFunction> pi_;
  LoadTable table_;
  WarmKmax kmax_;
  double mean_ = 0.0;
  double b0_ = 0.0;  ///< pi->zero_below(), hoisted
  std::int64_t direct_budget_ = 0;
  std::int64_t head_terms_ = 0;  ///< core::hybrid_head_terms, hoisted
  /// Step-utility threshold (Rigid b̂, or 1.0 for the PiecewiseLinear
  /// rigid-degenerate case); nullopt for everything else.
  std::optional<double> indicator_threshold_;
  std::string batch_key_;  ///< computed once at construction
  obs::Counter batch_terms_;
  obs::Counter batch_calls_;
  obs::Counter prefix_hits_;
  obs::Counter tail_calls_;
  obs::Counter tail_evaluations_;
};

}  // namespace bevr::kernels
