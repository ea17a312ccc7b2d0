// Application utility (performance) functions π(b) — the value an
// application delivers as a function of its bandwidth share b
// (paper §2). Contract: π is nondecreasing, π(0) = 0, π(∞) = 1.
//
// Families implemented (all from the paper):
//  * Elastic          π(b) = 1 − e^{−b}          (strictly concave: data apps)
//  * Rigid            Eq. (1): step at b̂          (telephony / circuit apps)
//  * AdaptiveExp      Eq. (2): 1 − exp(−b²/(κ+b)), κ = 0.62086 so that
//                     k_max(C) = C                (rate+delay adaptive A/V)
//  * PiecewiseLinear  continuum-model adaptive with floor a ∈ (0,1]
//  * AlgebraicTail    §3.3 footnote: π(b) = 1 − b^{−r} for b > 1, else 0
#pragma once

#include <memory>
#include <span>
#include <string>

namespace bevr::utility {

/// Interface for a normalised utility function.
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  /// π(b) ∈ [0, 1] for b ≥ 0. Throws std::invalid_argument for b < 0.
  [[nodiscard]] virtual double value(double bandwidth) const = 0;

  /// Batched evaluation: out[i] = value(bandwidth[i]) for every i.
  /// Throws std::invalid_argument if the spans differ in length or any
  /// bandwidth is negative (validated up front, before any output is
  /// written). The base implementation is a plain scalar loop; the
  /// paper's five families override it with branch-light loops over the
  /// identical formula so sweep kernels avoid one virtual call per
  /// summation term. Overrides must produce bit-identical results to
  /// value() — the kernels layer's equivalence contract depends on it.
  virtual void value_batch(std::span<const double> bandwidth,
                           std::span<double> out) const;

  /// The largest b₀ such that π(b) = 0 for all b < b₀ (0 for utilities
  /// positive everywhere). Model sums use it to cut off dead terms:
  /// a flow with share C/k < b₀ contributes nothing.
  [[nodiscard]] virtual double zero_below() const { return 0.0; }

  /// True when a neighbourhood of the origin is convex-but-not-linear,
  /// i.e. admission control can raise total utility (paper §2: such
  /// utilities are "inelastic" and have finite k_max).
  [[nodiscard]] virtual bool inelastic() const = 0;

  /// Hint: is V(k) = k·π(C/k) unimodal in k? True for every single-
  /// class utility in the paper; mixtures of step utilities return
  /// false so k_max() uses an exhaustive scan instead of ternary search.
  [[nodiscard]] virtual bool unimodal_total_utility() const { return true; }

  /// True when π is infinitely differentiable on (0, ∞), so the terms
  /// P(k)·k·π(C/k) of a model series sample a smooth function of k and
  /// a hybrid sum may take a short head and the Euler–Maclaurin-
  /// corrected tail (core/series_tail.h). Step and kinked utilities,
  /// and by default any other, return false.
  [[nodiscard]] virtual bool smooth() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Elastic utility π(b) = 1 − e^{−b} (everywhere strictly concave, so
/// V(k) is increasing and best-effort is optimal; paper §2).
class Elastic final : public UtilityFunction {
 public:
  [[nodiscard]] double value(double bandwidth) const override;
  void value_batch(std::span<const double> bandwidth,
                   std::span<double> out) const override;
  [[nodiscard]] bool inelastic() const override { return false; }
  [[nodiscard]] bool smooth() const override { return true; }
  [[nodiscard]] std::string name() const override { return "Elastic"; }
};

/// Rigid utility, Eq. (1): π(b) = 0 for b < b̂, 1 for b ≥ b̂.
class Rigid final : public UtilityFunction {
 public:
  explicit Rigid(double bandwidth_requirement = 1.0);

  [[nodiscard]] double value(double bandwidth) const override;
  void value_batch(std::span<const double> bandwidth,
                   std::span<double> out) const override;
  [[nodiscard]] double zero_below() const override { return bhat_; }
  [[nodiscard]] bool inelastic() const override { return true; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double requirement() const { return bhat_; }

 private:
  double bhat_;
};

/// Adaptive utility, Eq. (2): π(b) = 1 − exp(−b²/(κ+b)).
/// κ defaults to 0.62086, the paper's value making k_max(C) = C
/// (so reservation results compare directly with Rigid(b̂=1)).
class AdaptiveExp final : public UtilityFunction {
 public:
  /// The paper's κ.
  static constexpr double kPaperKappa = 0.62086;

  explicit AdaptiveExp(double kappa = kPaperKappa);

  [[nodiscard]] double value(double bandwidth) const override;
  void value_batch(std::span<const double> bandwidth,
                   std::span<double> out) const override;
  [[nodiscard]] bool inelastic() const override { return true; }
  [[nodiscard]] bool smooth() const override { return true; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double kappa() const { return kappa_; }

 private:
  double kappa_;
};

/// Continuum-model adaptive utility (paper §3.2):
///   π(b) = 0 for b ≤ a; (b−a)/(1−a) for a < b < 1; 1 for b ≥ 1.
/// a = 1 degenerates to Rigid(1); a → 0 approaches elastic behaviour.
class PiecewiseLinear final : public UtilityFunction {
 public:
  explicit PiecewiseLinear(double floor);

  [[nodiscard]] double value(double bandwidth) const override;
  void value_batch(std::span<const double> bandwidth,
                   std::span<double> out) const override;
  [[nodiscard]] double zero_below() const override { return floor_; }
  [[nodiscard]] bool inelastic() const override { return floor_ > 0.0; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double floor() const { return floor_; }

 private:
  double floor_;
};

/// Algebraically-approaching utility (§3.3 footnote):
///   π(b) = 0 for b ≤ 1; 1 − b^{−r} for b > 1, r > 0.
/// Its slow approach to 1 changes the large-C behaviour of Δ(C) under
/// algebraic loads (regimes split at r = z−2 and r = z−3).
class AlgebraicTail final : public UtilityFunction {
 public:
  explicit AlgebraicTail(double r);

  [[nodiscard]] double value(double bandwidth) const override;
  void value_batch(std::span<const double> bandwidth,
                   std::span<double> out) const override;
  [[nodiscard]] double zero_below() const override { return 1.0; }
  [[nodiscard]] bool inelastic() const override { return true; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double r() const { return r_; }

 private:
  double r_;
};

}  // namespace bevr::utility
