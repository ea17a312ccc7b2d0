// Variable-capacity (welfare) model, paper §4.
//
// A provider facing bandwidth price p chooses capacity to maximise
// total welfare W = V(C) − p·C, giving a provisioning function C(p)
// and welfare function W(p) per architecture. The architectures are
// compared by the *equalising price ratio*
//     γ(p) = p̂ / p   with   W_R(p̂) = W_B(p):
// how much more per unit of bandwidth the reservation-capable network
// could cost and still deliver the same welfare. γ(p) → 1 as p → 0 for
// Poisson/exponential loads, but stays bounded away from 1 for
// algebraic loads — the paper's core economic finding.
#pragma once

#include <functional>

#include "bevr/numerics/optimize.h"

namespace bevr::core {

/// A provisioning decision: chosen capacity and the welfare it yields.
struct WelfarePoint {
  double capacity = 0.0;
  double welfare = 0.0;
};

/// Maximise V(C) − p·C over C ≥ 0 for an arbitrary (possibly kinked or
/// stepped) total-utility function V. `scale_hint` should be the
/// natural capacity scale (≈ k̄·b̂); the search expands beyond it as
/// needed. The provider can always build nothing, so the result's
/// welfare is ≥ 0. `grid_points` sizes the fine grid: a smooth V scans
/// every 7th fine point, then the winning coarse cell, then refines
/// within one fine step (~100 evaluations at 512 points); a V that is
/// piecewise constant at `scale_hint` (or, where V is −inf there, next
/// to the winning coarse point) takes the full grid_points scan and
/// golden section (DESIGN.md §2.4).
[[nodiscard]] WelfarePoint maximize_welfare(
    const std::function<double(double)>& total_utility, double price,
    double scale_hint, int grid_points = 512);

/// maximize_welfare with the scan stage of the search batched:
/// `total_utility_grid` fills out[i] with V(lo + step·i) — the exact
/// doubles total_utility would return — in one call, so a batched
/// backend (bevr::kernels, or a caller-side cache of the recurring
/// V grid) pays the virtual-dispatch and lookup costs once per scan
/// instead of once per point. Same probes, same comparisons, same
/// result bits as the scalar overload. Null grid fn falls back to it.
[[nodiscard]] WelfarePoint maximize_welfare(
    const std::function<double(double)>& total_utility,
    const numerics::GridEvalFn& total_utility_grid, double price,
    double scale_hint, int grid_points = 512);

/// Equalising price ratio γ(p): solves W_R(p̂) = W_B(p) for p̂ ≥ p given
/// the two welfare functions (W_R must be nonincreasing in price).
/// Returns γ = p̂/p; +inf if W_R never falls to W_B within the search
/// bound (does not occur in the paper's configurations).
[[nodiscard]] double equalizing_price_ratio(
    const std::function<double(double)>& welfare_best_effort,
    const std::function<double(double)>& welfare_reservation, double price);

/// Convenience bundle: welfare analysis of one discrete variable-load
/// model (wraps maximize_welfare over total_best_effort /
/// total_reservation of any model exposing them as callables).
class WelfareAnalysis {
 public:
  /// `v_best_effort`, `v_reservation`: unnormalised total utilities.
  WelfareAnalysis(std::function<double(double)> v_best_effort,
                  std::function<double(double)> v_reservation,
                  double scale_hint);

  /// Batched variant: the grid callables feed the scan stage of every
  /// maximisation (see the grid maximize_welfare overload); the scalar
  /// callables still serve the refinement probes. Null grid callables
  /// degrade to the scalar path member by member.
  WelfareAnalysis(std::function<double(double)> v_best_effort,
                  std::function<double(double)> v_reservation,
                  numerics::GridEvalFn v_best_effort_grid,
                  numerics::GridEvalFn v_reservation_grid, double scale_hint);

  [[nodiscard]] WelfarePoint best_effort(double price) const;
  [[nodiscard]] WelfarePoint reservation(double price) const;

  /// γ(p) as defined above: Newton with the envelope slope −C_R(p̂)
  /// after a smooth reservation maximisation at p, equalizing_price_ratio
  /// after a stepped one, and max(1, p̂*/p) where W_B(p) = 0, p̂* =
  /// sup_{C>0} V_R(C)/C being the price at which the reservation
  /// provider stops building.
  [[nodiscard]] double price_ratio(double price) const;

 private:
  std::function<double(double)> v_b_;
  std::function<double(double)> v_r_;
  numerics::GridEvalFn vg_b_;
  numerics::GridEvalFn vg_r_;
  double scale_;
};

}  // namespace bevr::core
