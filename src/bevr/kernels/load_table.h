// Flat, build-once tables of a discrete load distribution.
//
// Every figure sweep in the paper evaluates Σ P(k)·k·π(C/k) thousands
// of times over the same load; the scalar model pays two virtual calls
// per summation term (pmf, utility) and re-derives nothing between
// capacities. A LoadTable freezes the capacity-independent half of
// that work: pmf(k), k·pmf(k) (at construction), tail_above(k) and
// partial_mean_above(k) (on first read) over the exact direct-summation
// window [k_lo, k_hi] the model would use, as contiguous doubles.
//
// It additionally stores the *Kahan accumulator state* of the running
// sum Σ k·pmf(k) after each term. For step utilities (Rigid, and the
// PiecewiseLinear rigid-degenerate case) the capacity-dependent factor
// π(C/k) is an indicator, so a whole series sum collapses to one O(log)
// boundary search plus an O(1) prefix lookup — and because a Neumaier
// accumulator is left bit-exactly unchanged by adding +0.0 terms, the
// prefix state equals the state a scalar loop reaches after summing the
// zeroed tail, making the shortcut bit-identical, not just close.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bevr/dist/discrete.h"
#include "bevr/numerics/kahan.h"

namespace bevr::kernels {

class LoadTable {
 public:
  /// Sizing knobs. tail_eps / direct_budget must match the
  /// VariableLoadModel::Options of the model the table serves, so the
  /// table window coincides with the model's direct-summation window.
  struct Options {
    double tail_eps = 1e-13;
    std::int64_t direct_budget = 65'536;
    /// tail_above / partial_mean_above keep slots for at most this
    /// many k values past k_lo, each filled on its first read; queries
    /// past the cap call the load's virtuals every time.
    std::int64_t tail_table_terms = 4096;
  };

  LoadTable(std::shared_ptr<const dist::DiscreteLoad> load, Options options);

  /// First tabulated k: max(1, min_support()) — where every model
  /// series starts after clamping.
  [[nodiscard]] std::int64_t k_lo() const { return k_lo_; }
  /// truncation_point(tail_eps): beyond it the model ignores the tail.
  [[nodiscard]] std::int64_t k_exact() const { return k_exact_; }
  /// Last tabulated k: min(max(k_exact, k_lo), k_lo + direct_budget − 1)
  /// — exactly the furthest k a direct summation ever touches.
  [[nodiscard]] std::int64_t k_hi() const { return k_hi_; }
  [[nodiscard]] std::size_t size() const { return kd_.size(); }

  /// k as double, for k in [k_lo, k_hi] (index 0 ↔ k_lo).
  [[nodiscard]] std::span<const double> kd() const { return kd_; }
  /// pmf(k).
  [[nodiscard]] std::span<const double> pmf() const { return pmf_; }
  /// pmf(k)·double(k), rounded exactly as the scalar term computes it.
  [[nodiscard]] std::span<const double> kpmf() const { return kpmf_; }

  /// The Neumaier accumulator state after adding kpmf[k_lo..k] in
  /// order; a default (zero) state for k < k_lo. Requires k <= k_hi().
  [[nodiscard]] numerics::KahanSum prefix_mass_state(std::int64_t k) const;

  /// P[K > k] / E[K·1{K > k}]: the virtual's double. Slots for k in
  /// [k_lo, k_lo + tail_table_terms) fill on first read, from any
  /// thread; other k call the virtual.
  [[nodiscard]] double tail_above(std::int64_t k) const;
  [[nodiscard]] double partial_mean_above(std::int64_t k) const;

  [[nodiscard]] const dist::DiscreteLoad& load() const { return *load_; }

 private:
  std::shared_ptr<const dist::DiscreteLoad> load_;
  std::int64_t k_lo_ = 1;
  std::int64_t k_exact_ = 1;
  std::int64_t k_hi_ = 1;
  std::vector<double> kd_;
  std::vector<double> pmf_;
  std::vector<double> kpmf_;
  std::vector<double> prefix_sum_;   // raw Kahan sum after each term
  std::vector<double> prefix_comp_;  // matching compensation
  /// Tail slots' bit patterns (see read_slot in load_table.cpp).
  mutable std::vector<std::atomic<std::uint64_t>> tail_above_;
  mutable std::vector<std::atomic<std::uint64_t>> partial_mean_above_;
};

}  // namespace bevr::kernels
