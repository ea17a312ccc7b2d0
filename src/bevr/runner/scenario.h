// Declarative experiment scenarios and the named-scenario registry.
//
// A ScenarioSpec is a complete, serialisable description of one sweep:
// load family + parameters, utility family + parameters, an evaluation
// grid (capacities or prices), and which model evaluates it —
// fixed-load, discrete variable-load, continuum closed forms, welfare,
// or the flow-level simulator. The built-in registry enumerates the
// full paper-figure suite (Figures 2/3/4, their welfare panels, the
// continuum cross-checks, and a sim-vs-model validation) as named
// scenarios that `bevr_run` can list, filter and execute.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bevr/admission/trace.h"
#include "bevr/core/continuum.h"
#include "bevr/core/variable_load.h"
#include "bevr/dist/discrete.h"
#include "bevr/net2/trace.h"
#include "bevr/utility/utility.h"

namespace bevr::runner {

enum class LoadFamily { kPoisson, kExponential, kAlgebraic };
enum class UtilityFamily {
  kRigid,
  kAdaptiveExp,
  kPiecewiseLinear,
  kElastic,
  kAlgebraicTail,
};
enum class ModelKind {
  kFixedLoad,      ///< k_max(C) and V(k_max; C) per capacity
  kVariableLoad,   ///< B, R, δ, Δ per capacity (paper §3.1)
  kContinuum,      ///< closed-form/numeric continuum per capacity (§3.2)
  kWelfare,        ///< C(p), W(p), γ(p) per price (§4)
  kSimulation,     ///< flow-level sim vs model per capacity
  kAdmission,      ///< admission policies on shared arrival traces
  kNet2,           ///< multi-link network policies / mean-field evaluator
};

/// Which knob an admission scenario sweeps over its grid.
enum class AdmissionSweep {
  kArrivalRate,  ///< trace arrival rate; compares the three policies
  kBookAhead,    ///< mean submit-to-start lead; compares the policies
  kErlangCheck,  ///< offered load; rigid calendar vs Erlang-B (M/M/C/C)
};

[[nodiscard]] std::string to_string(AdmissionSweep sweep);

/// Admission-scenario knobs (ModelKind::kAdmission). The grid value
/// overrides the swept TraceSpec field per point; everything else in
/// `trace` is shared, so each grid point replays its three policies on
/// one bit-identical trace.
struct AdmissionSpec {
  admission::TraceSpec trace;
  AdmissionSweep sweep = AdmissionSweep::kArrivalRate;
  double capacity = 100.0;
  double tick = 0.25;   ///< calendar slice width
  double warmup = 50.0; ///< requests submitting earlier are unscored
  /// Advance-booking malleability (ignored by the other policies).
  double min_rate_fraction = 0.5;
  double max_start_shift = 2.0;
  double shift_step = 0.5;
};

/// Which knob a network (net2) scenario sweeps over its grid.
enum class Net2Sweep {
  /// Per-pair offered load (erlangs); compares best effort, per-link
  /// reservation, and DAR at r = 0 and r = trunk_reserve on one
  /// bit-identical trace per point — the network fig2 analogue.
  kPairLoad,
  /// Per-pair offered load; DAR simulation blocking vs the Erlang
  /// fixed point at the same (C, a, r), with a 3σ half-width column.
  kMeanFieldCheck,
  /// Node count N (rounded to the nearest integer); simulation
  /// blocking against the N-independent mean-field limit — the
  /// Fayolle et al. large-network asymptotics check.
  kNodes,
  /// Per-link capacity C (rounded); pure fixed-point sweep with the
  /// per-pair load placed at `mf_target_blocking` Erlang-B blocking
  /// via erlang_b_offered_load — the analytic path to operating
  /// points far beyond what the simulator can replay.
  kMeanFieldScale,
};

[[nodiscard]] std::string to_string(Net2Sweep sweep);

/// Network-scenario knobs (ModelKind::kNet2). The grid value overrides
/// the swept field per point; everything else is shared, so each grid
/// point replays its policies on one bit-identical trace.
struct Net2Spec {
  net2::TopologyKind topology = net2::TopologyKind::kFullMesh;
  int nodes = 6;           ///< synthetic-topology node count
  double capacity = 10.0;  ///< per-link circuits (integral for mean field)
  net2::NetTraceSpec trace;
  Net2Sweep sweep = Net2Sweep::kPairLoad;
  double warmup = 20.0;       ///< calls submitting earlier are unscored
  double trunk_reserve = 2.0; ///< DAR r (integral circuits)
  /// Mean-field iteration knobs (kMeanFieldCheck/kNodes/kMeanFieldScale).
  double mf_damping = 0.5;
  double mf_tolerance = 1e-12;
  /// kMeanFieldScale: Erlang-B blocking the per-pair load is placed at.
  double mf_target_blocking = 0.01;
};

[[nodiscard]] std::string to_string(LoadFamily family);
[[nodiscard]] std::string to_string(UtilityFamily family);
[[nodiscard]] std::string to_string(ModelKind kind);

/// An inclusive 1-D evaluation grid: the one grid generator the
/// registry, the runner and the bench suites share. Linear points are
/// lo + (hi − lo)·i/(n − 1), multiplied before dividing so a grid with
/// an integral step hits it exactly ({10, 400, 40} is 10, 20, …, 400);
/// log points are lo·(hi/lo)^(i/(n − 1)). A single point is {lo}, and
/// n ≤ 0 gives an empty grid.
struct GridSpec {
  double lo = 10.0;
  double hi = 400.0;
  int points = 40;
  bool log_spaced = false;

  [[nodiscard]] std::vector<double> values() const;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  ModelKind model = ModelKind::kVariableLoad;

  LoadFamily load = LoadFamily::kExponential;
  /// Algebraic: the power z (mean held at `load_mean`). Poisson /
  /// exponential: unused (the mean is the only parameter).
  double load_param = 0.0;
  double load_mean = 100.0;  ///< k̄; the paper fixes 100

  UtilityFamily util = UtilityFamily::kRigid;
  /// Rigid: b̂; AdaptiveExp: κ; PiecewiseLinear: floor a;
  /// AlgebraicTail: r; Elastic: unused.
  double util_param = 1.0;

  /// Capacity grid (fixed/variable/continuum/sim) or price grid (welfare).
  GridSpec grid;

  /// Include the root-solved bandwidth gap Δ(C) column (variable-load
  /// and continuum sweeps; by far the most expensive column).
  bool with_bandwidth_gap = true;

  /// Evaluation accuracy knobs forwarded to VariableLoadModel.
  core::VariableLoadModel::Options eval;

  /// Simulation-only knobs (ModelKind::kSimulation).
  double sim_horizon = 4000.0;
  double sim_warmup = 400.0;

  /// Admission-only knobs (ModelKind::kAdmission).
  AdmissionSpec admission;

  /// Network-only knobs (ModelKind::kNet2).
  Net2Spec net2;

  /// Throws std::invalid_argument with a precise message when the spec
  /// is not executable (bad grid, unsupported model/family combo, ...).
  void validate() const;
};

/// Instantiate the spec's load distribution / utility function.
/// `make_load` performs the Hurwitz-zeta λ-calibration for algebraic
/// loads, which the runner memoizes across tasks (see MemoCache).
[[nodiscard]] std::shared_ptr<const dist::DiscreteLoad> make_load(
    const ScenarioSpec& spec);
[[nodiscard]] std::shared_ptr<const dist::DiscreteLoad> make_load_with_lambda(
    const ScenarioSpec& spec, double algebraic_lambda);
[[nodiscard]] std::shared_ptr<const utility::UtilityFunction> make_utility(
    const ScenarioSpec& spec);

/// Continuum model for the spec's (load, utility) pair, using the
/// paper's closed forms where they exist and quadrature otherwise.
/// Throws for combinations with no continuum analogue (Poisson loads).
[[nodiscard]] std::unique_ptr<const core::ContinuumModel> make_continuum_model(
    const ScenarioSpec& spec);

/// Named-scenario registry. Lookup is by exact name first, then by
/// case-sensitive substring filter (`match`).
class ScenarioRegistry {
 public:
  /// Throws std::invalid_argument on duplicate names.
  void add(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec* find(const std::string& name) const;
  [[nodiscard]] std::vector<const ScenarioSpec*> match(
      const std::string& filter) const;
  [[nodiscard]] const std::vector<ScenarioSpec>& all() const { return specs_; }

  /// The paper-figure suite: fig{2,3,4}_{rigid,adaptive}, their
  /// welfare panels, fig1 fixed-load curves, continuum cross-checks,
  /// and sim_mm_inf_validation.
  [[nodiscard]] static const ScenarioRegistry& builtin();

 private:
  std::vector<ScenarioSpec> specs_;
};

}  // namespace bevr::runner
