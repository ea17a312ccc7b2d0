// Discrete variable-load model (paper §3.1) — the paper's central
// quantitative engine.
//
// The load is a random number K of identical flows, K ~ P(k). Per-flow
// normalised utilities of the two architectures:
//
//   B(C) = (1/k̄) Σ_k P(k)·k·π(C/k)                      (best-effort)
//   R(C) = (1/k̄) [ Σ_{k ≤ k_max} P(k)·k·π(C/k)
//                  + k_max·π(C/k_max)·P[K > k_max] ]      (reservations)
//
// with k_max = k_max(C) from the fixed-load model. Derived quantities:
//   performance gap  δ(C) = R(C) − B(C)
//   bandwidth gap    Δ(C) solving R(C) = B(C + Δ(C))
// Δ(C) is the paper's headline metric: the extra capacity a best-effort
// network needs to match a reservation-capable one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "bevr/dist/discrete.h"
#include "bevr/utility/utility.h"

namespace bevr::core {

class VariableLoadModel {
 public:
  /// Accuracy/cost knobs for the series evaluation.
  struct Options {
    /// Exact-tail truncation target for Σ P(k)(...) sums.
    double tail_eps = 1e-13;
    /// A series of more terms than this goes hybrid: a direct head,
    /// then the integral tail of core/series_tail.h over pmf_continuous
    /// (heavy tails). The head is direct_budget terms, or 2048 for a
    /// smooth utility, whose tail carries Euler–Maclaurin corrections.
    /// Against the long-double oracle (bench_ablation, DESIGN §2.4) B
    /// stays within a few ulps; the plain midpoint tail this replaced
    /// read B(10) 2.1e-11 low at z = 4 even after a 65,536-term head.
    std::int64_t direct_budget = 65'536;
  };

  VariableLoadModel(std::shared_ptr<const dist::DiscreteLoad> load,
                    std::shared_ptr<const utility::UtilityFunction> pi,
                    Options options);

  /// Default-accuracy construction.
  VariableLoadModel(std::shared_ptr<const dist::DiscreteLoad> load,
                    std::shared_ptr<const utility::UtilityFunction> pi)
      : VariableLoadModel(std::move(load), std::move(pi), Options{}) {}

  /// Mean offered load k̄ (the paper fixes 100).
  [[nodiscard]] double mean_load() const { return mean_; }

  /// Admission threshold k_max(C); nullopt when utility is elastic.
  [[nodiscard]] std::optional<std::int64_t> k_max(double capacity) const;

  /// Normalised best-effort utility B(C) ∈ [0, 1].
  [[nodiscard]] double best_effort(double capacity) const;

  /// Normalised reservation utility R(C) ∈ [0, 1]; R ≥ B.
  [[nodiscard]] double reservation(double capacity) const;

  /// Unnormalised totals V = k̄·(per-flow utility), for welfare.
  [[nodiscard]] double total_best_effort(double capacity) const;
  [[nodiscard]] double total_reservation(double capacity) const;

  /// δ(C) = R(C) − B(C), clamped at 0 against rounding noise.
  [[nodiscard]] double performance_gap(double capacity) const;

  /// Δ(C) with R(C) = B(C + Δ); +inf if B can never catch up within
  /// the search bound (does not occur for the paper's configurations).
  [[nodiscard]] double bandwidth_gap(double capacity) const;

  /// Flow-perspective blocking probability of the reservation system,
  /// θ(C) = Σ_{k > k_max} Q(k)·(k − k_max)/k (drives the §5.2 retries).
  [[nodiscard]] double blocking_fraction(double capacity) const;

  [[nodiscard]] const dist::DiscreteLoad& load() const { return *load_; }
  [[nodiscard]] const utility::UtilityFunction& util() const { return *pi_; }

  /// The accuracy/cost knobs this model was built with. The kernels
  /// layer reads these to mirror the series evaluation exactly.
  [[nodiscard]] const Options& options() const { return options_; }

  /// Shared ownership of the load/utility, for wrappers (kernels) that
  /// must outlive-proof their references.
  [[nodiscard]] const std::shared_ptr<const dist::DiscreteLoad>& load_ptr()
      const {
    return load_;
  }
  [[nodiscard]] const std::shared_ptr<const utility::UtilityFunction>&
  util_ptr() const {
    return pi_;
  }

 private:
  /// Σ_{k=k_lo}^{k_hi} P(k)·k·π(C/k), hybrid direct/integral evaluation.
  [[nodiscard]] double flow_utility_between(double capacity,
                                            std::int64_t k_lo,
                                            std::int64_t k_hi) const;

  std::shared_ptr<const dist::DiscreteLoad> load_;
  std::shared_ptr<const utility::UtilityFunction> pi_;
  Options options_;
  double mean_;
  /// truncation_point(tail_eps), hoisted: capacity-independent, and the
  /// closed form is nontrivial for heavy-tailed loads.
  std::int64_t k_exact_;
};

}  // namespace bevr::core
