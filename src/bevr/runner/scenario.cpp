#include "bevr/runner/scenario.h"

#include <cmath>
#include <stdexcept>

#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/exponential_density.h"
#include "bevr/dist/pareto_density.h"
#include "bevr/dist/poisson.h"

namespace bevr::runner {

std::string to_string(LoadFamily family) {
  switch (family) {
    case LoadFamily::kPoisson: return "poisson";
    case LoadFamily::kExponential: return "exponential";
    case LoadFamily::kAlgebraic: return "algebraic";
  }
  return "?";
}

std::string to_string(UtilityFamily family) {
  switch (family) {
    case UtilityFamily::kRigid: return "rigid";
    case UtilityFamily::kAdaptiveExp: return "adaptive";
    case UtilityFamily::kPiecewiseLinear: return "pwl";
    case UtilityFamily::kElastic: return "elastic";
    case UtilityFamily::kAlgebraicTail: return "algtail";
  }
  return "?";
}

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kFixedLoad: return "fixed_load";
    case ModelKind::kVariableLoad: return "variable_load";
    case ModelKind::kContinuum: return "continuum";
    case ModelKind::kWelfare: return "welfare";
    case ModelKind::kSimulation: return "simulation";
    case ModelKind::kAdmission: return "admission";
    case ModelKind::kNet2: return "net2";
  }
  return "?";
}

std::string to_string(Net2Sweep sweep) {
  switch (sweep) {
    case Net2Sweep::kPairLoad: return "pair_load";
    case Net2Sweep::kMeanFieldCheck: return "meanfield_check";
    case Net2Sweep::kNodes: return "nodes";
    case Net2Sweep::kMeanFieldScale: return "meanfield_scale";
  }
  return "?";
}

std::string to_string(AdmissionSweep sweep) {
  switch (sweep) {
    case AdmissionSweep::kArrivalRate: return "arrival_rate";
    case AdmissionSweep::kBookAhead: return "book_ahead";
    case AdmissionSweep::kErlangCheck: return "erlang_check";
  }
  return "?";
}

std::vector<double> GridSpec::values() const {
  if (points <= 0) return {};
  if (points == 1) return {lo};
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double step = static_cast<double>(i);
    grid.push_back(log_spaced ? lo * std::pow(hi / lo, step / (points - 1))
                              : lo + (hi - lo) * step / (points - 1));
  }
  return grid;
}

void ScenarioSpec::validate() const {
  if (name.empty()) throw std::invalid_argument("ScenarioSpec: empty name");
  if (grid.points < 1) {
    throw std::invalid_argument("ScenarioSpec '" + name +
                                "': grid needs at least 1 point");
  }
  if (grid.points > 1 && !(grid.lo < grid.hi)) {
    throw std::invalid_argument("ScenarioSpec '" + name +
                                "': grid requires lo < hi");
  }
  if (!(grid.lo > 0.0)) {
    throw std::invalid_argument("ScenarioSpec '" + name +
                                "': grid lower edge must be > 0");
  }
  if (grid.log_spaced && !(grid.lo > 0.0)) {
    throw std::invalid_argument("ScenarioSpec '" + name +
                                "': log grid requires lo > 0");
  }
  if (load == LoadFamily::kAlgebraic && !(load_param > 2.0)) {
    throw std::invalid_argument("ScenarioSpec '" + name +
                                "': algebraic load requires z > 2");
  }
  if (!(load_mean > 0.0)) {
    throw std::invalid_argument("ScenarioSpec '" + name +
                                "': load mean must be > 0");
  }
  if (model == ModelKind::kContinuum) {
    (void)make_continuum_model(*this);  // throws on unsupported combinations
  }
  if (model == ModelKind::kSimulation && !(sim_horizon > sim_warmup)) {
    throw std::invalid_argument("ScenarioSpec '" + name +
                                "': sim horizon must exceed warmup");
  }
  if (model == ModelKind::kAdmission) {
    admission.trace.validate();  // swept field is overridden per point
    if (util == UtilityFamily::kElastic) {
      throw std::invalid_argument(
          "ScenarioSpec '" + name +
          "': admission scenarios need an inelastic utility (the online "
          "k_max policy has no threshold for elastic apps)");
    }
    if (!(admission.capacity > 0.0) || !(admission.tick > 0.0)) {
      throw std::invalid_argument("ScenarioSpec '" + name +
                                  "': admission capacity and tick must be > 0");
    }
    if (!(admission.warmup >= 0.0) ||
        !(admission.warmup < admission.trace.horizon)) {
      throw std::invalid_argument(
          "ScenarioSpec '" + name +
          "': admission warmup must lie in [0, trace horizon)");
    }
  }
  if (model == ModelKind::kNet2) {
    net2.trace.validate();  // swept field is overridden per point
    if (util == UtilityFamily::kElastic) {
      throw std::invalid_argument(
          "ScenarioSpec '" + name +
          "': net2 scenarios need an inelastic utility (the per-link "
          "reservation policy has no k_max for elastic apps)");
    }
    if (!(net2.capacity > 0.0) || !std::isfinite(net2.capacity)) {
      throw std::invalid_argument("ScenarioSpec '" + name +
                                  "': net2 capacity must be finite and > 0");
    }
    if (!(net2.trunk_reserve >= 0.0) || !(net2.trunk_reserve < net2.capacity)) {
      throw std::invalid_argument(
          "ScenarioSpec '" + name +
          "': net2 trunk_reserve must lie in [0, capacity)");
    }
    if (net2.sweep != Net2Sweep::kMeanFieldScale &&
        (!(net2.warmup >= 0.0) || !(net2.warmup < net2.trace.horizon))) {
      throw std::invalid_argument(
          "ScenarioSpec '" + name +
          "': net2 warmup must lie in [0, trace horizon)");
    }
    if (net2.sweep != Net2Sweep::kMeanFieldScale &&
        net2.sweep != Net2Sweep::kNodes) {
      net2::TopologySpec tspec;
      tspec.kind = net2.topology;
      tspec.nodes = net2.nodes;
      tspec.capacity = net2.capacity;
      tspec.validate();
    }
    const bool mean_field = net2.sweep != Net2Sweep::kPairLoad;
    if (mean_field) {
      if (net2.topology != net2::TopologyKind::kFullMesh) {
        throw std::invalid_argument(
            "ScenarioSpec '" + name +
            "': mean-field net2 sweeps require the full-mesh topology");
      }
      if (net2.capacity != std::floor(net2.capacity) ||
          net2.trunk_reserve != std::floor(net2.trunk_reserve)) {
        throw std::invalid_argument(
            "ScenarioSpec '" + name +
            "': mean-field net2 sweeps need integral capacity and "
            "trunk_reserve (unit circuits)");
      }
      if (net2.trace.rate != 1.0) {
        throw std::invalid_argument(
            "ScenarioSpec '" + name +
            "': mean-field net2 sweeps model unit-rate circuits");
      }
      if (!(net2.mf_damping > 0.0) || !(net2.mf_damping <= 1.0) ||
          !(net2.mf_tolerance > 0.0)) {
        throw std::invalid_argument(
            "ScenarioSpec '" + name +
            "': net2 mean-field damping must lie in (0, 1] and tolerance "
            "must be > 0");
      }
    }
    if (net2.sweep == Net2Sweep::kMeanFieldScale &&
        (!(net2.mf_target_blocking > 0.0) ||
         !(net2.mf_target_blocking < 1.0))) {
      throw std::invalid_argument(
          "ScenarioSpec '" + name +
          "': net2 mf_target_blocking must lie in (0, 1)");
    }
  }
}

std::shared_ptr<const dist::DiscreteLoad> make_load(const ScenarioSpec& spec) {
  switch (spec.load) {
    case LoadFamily::kPoisson:
      return std::make_shared<dist::PoissonLoad>(spec.load_mean);
    case LoadFamily::kExponential:
      return std::make_shared<dist::ExponentialLoad>(
          dist::ExponentialLoad::with_mean(spec.load_mean));
    case LoadFamily::kAlgebraic:
      return std::make_shared<dist::AlgebraicLoad>(
          dist::AlgebraicLoad::with_mean(spec.load_param, spec.load_mean));
  }
  throw std::invalid_argument("make_load: unknown load family");
}

std::shared_ptr<const dist::DiscreteLoad> make_load_with_lambda(
    const ScenarioSpec& spec, double algebraic_lambda) {
  if (spec.load != LoadFamily::kAlgebraic) return make_load(spec);
  return std::make_shared<dist::AlgebraicLoad>(spec.load_param,
                                               algebraic_lambda);
}

std::shared_ptr<const utility::UtilityFunction> make_utility(
    const ScenarioSpec& spec) {
  switch (spec.util) {
    case UtilityFamily::kRigid:
      return std::make_shared<utility::Rigid>(spec.util_param);
    case UtilityFamily::kAdaptiveExp:
      return std::make_shared<utility::AdaptiveExp>(spec.util_param);
    case UtilityFamily::kPiecewiseLinear:
      return std::make_shared<utility::PiecewiseLinear>(spec.util_param);
    case UtilityFamily::kElastic:
      return std::make_shared<utility::Elastic>();
    case UtilityFamily::kAlgebraicTail:
      return std::make_shared<utility::AlgebraicTail>(spec.util_param);
  }
  throw std::invalid_argument("make_utility: unknown utility family");
}

std::unique_ptr<const core::ContinuumModel> make_continuum_model(
    const ScenarioSpec& spec) {
  const double beta = 1.0 / spec.load_mean;
  switch (spec.load) {
    case LoadFamily::kExponential:
      if (spec.util == UtilityFamily::kRigid && spec.util_param == 1.0) {
        return std::make_unique<core::ExponentialRigidContinuum>(beta);
      }
      if (spec.util == UtilityFamily::kPiecewiseLinear) {
        return std::make_unique<core::ExponentialAdaptiveContinuum>(
            beta, spec.util_param);
      }
      return std::make_unique<core::NumericContinuumModel>(
          std::make_shared<dist::ExponentialDensity>(beta),
          make_utility(spec));
    case LoadFamily::kAlgebraic:
      if (spec.util == UtilityFamily::kRigid && spec.util_param == 1.0) {
        return std::make_unique<core::AlgebraicRigidContinuum>(spec.load_param);
      }
      if (spec.util == UtilityFamily::kPiecewiseLinear) {
        return std::make_unique<core::AlgebraicAdaptiveContinuum>(
            spec.load_param, spec.util_param);
      }
      if (spec.util == UtilityFamily::kAlgebraicTail) {
        return std::make_unique<core::AlgebraicTailUtilityContinuum>(
            spec.load_param, spec.util_param);
      }
      return std::make_unique<core::NumericContinuumModel>(
          std::make_shared<dist::ParetoDensity>(spec.load_param),
          make_utility(spec));
    case LoadFamily::kPoisson:
      break;  // no continuum analogue in the paper
  }
  throw std::invalid_argument(
      "make_continuum_model: no continuum model for load family '" +
      to_string(spec.load) + "'");
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  spec.validate();
  if (find(spec.name) != nullptr) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario '" +
                                spec.name + "'");
  }
  specs_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::match(
    const std::string& filter) const {
  std::vector<const ScenarioSpec*> matches;
  for (const auto& spec : specs_) {
    if (spec.name.find(filter) != std::string::npos) matches.push_back(&spec);
  }
  return matches;
}

namespace {

// The paper's figure suite: the one definition of Figures 2-4, which
// bench_fig{2,3,4} print their panels from (bench/registry_runs.h).
// The algebraic welfare panels use the cheaper evaluation budget heavy
// tails demand.
ScenarioRegistry build_paper_suite() {
  ScenarioRegistry registry;

  const auto figure = [](std::string name, std::string description,
                         LoadFamily load, double z, UtilityFamily util,
                         double util_param, double c_hi) {
    ScenarioSpec spec;
    spec.name = std::move(name);
    spec.description = std::move(description);
    spec.model = ModelKind::kVariableLoad;
    spec.load = load;
    spec.load_param = z;
    spec.util = util;
    spec.util_param = util_param;
    spec.grid = GridSpec{10.0, c_hi, 40, false};
    return spec;
  };
  const double kappa = utility::AdaptiveExp::kPaperKappa;

  // Figure 2: Poisson load, k̄ = 100.
  registry.add(figure("fig2_rigid", "Fig 2a/b: B,R,delta,Delta — Poisson load, rigid apps",
                      LoadFamily::kPoisson, 0.0, UtilityFamily::kRigid, 1.0, 400.0));
  registry.add(figure("fig2_adaptive", "Fig 2d/e: B,R,delta,Delta — Poisson load, adaptive apps",
                      LoadFamily::kPoisson, 0.0, UtilityFamily::kAdaptiveExp, kappa, 400.0));
  // Figure 3: exponential load.
  registry.add(figure("fig3_rigid", "Fig 3a/b: B,R,delta,Delta — exponential load, rigid apps",
                      LoadFamily::kExponential, 0.0, UtilityFamily::kRigid, 1.0, 800.0));
  registry.add(figure("fig3_adaptive", "Fig 3d/e: B,R,delta,Delta — exponential load, adaptive apps",
                      LoadFamily::kExponential, 0.0, UtilityFamily::kAdaptiveExp, kappa, 800.0));
  // Figure 4: algebraic load, z = 3.
  registry.add(figure("fig4_rigid", "Fig 4a/b: B,R,delta,Delta — algebraic load (z=3), rigid apps",
                      LoadFamily::kAlgebraic, 3.0, UtilityFamily::kRigid, 1.0, 800.0));
  registry.add(figure("fig4_adaptive", "Fig 4d/e: B,R,delta,Delta — algebraic load (z=3), adaptive apps",
                      LoadFamily::kAlgebraic, 3.0, UtilityFamily::kAdaptiveExp, kappa, 800.0));

  // Welfare panels (c/f of each figure): γ(p) over a log price grid.
  const auto welfare = [&figure](std::string name, std::string description,
                                 LoadFamily load, double z, UtilityFamily util,
                                 double util_param, double p_lo, int points) {
    ScenarioSpec spec = figure(std::move(name), std::move(description), load,
                               z, util, util_param, 0.0);
    spec.model = ModelKind::kWelfare;
    spec.grid = GridSpec{p_lo, 0.4, points, true};
    if (load == LoadFamily::kAlgebraic) {
      // Heavy tails drive huge optimal capacities at small p.
      spec.eval.tail_eps = 1e-10;
      spec.eval.direct_budget = 16'384;
    }
    return spec;
  };
  registry.add(welfare("fig2_welfare_rigid", "Fig 2c: C(p), W(p), gamma(p) — Poisson, rigid",
                       LoadFamily::kPoisson, 0.0, UtilityFamily::kRigid, 1.0, 1e-3, 9));
  registry.add(welfare("fig2_welfare_adaptive", "Fig 2f: C(p), W(p), gamma(p) — Poisson, adaptive",
                       LoadFamily::kPoisson, 0.0, UtilityFamily::kAdaptiveExp, kappa, 1e-3, 9));
  registry.add(welfare("fig3_welfare_rigid", "Fig 3c: C(p), W(p), gamma(p) — exponential, rigid",
                       LoadFamily::kExponential, 0.0, UtilityFamily::kRigid, 1.0, 1e-3, 9));
  registry.add(welfare("fig3_welfare_adaptive", "Fig 3f: C(p), W(p), gamma(p) — exponential, adaptive",
                       LoadFamily::kExponential, 0.0, UtilityFamily::kAdaptiveExp, kappa, 1e-3, 9));
  registry.add(welfare("fig4_welfare_rigid", "Fig 4c: C(p), W(p), gamma(p) — algebraic z=3, rigid",
                       LoadFamily::kAlgebraic, 3.0, UtilityFamily::kRigid, 1.0, 3e-3, 7));
  registry.add(welfare("fig4_welfare_adaptive", "Fig 4f: C(p), W(p), gamma(p) — algebraic z=3, adaptive",
                       LoadFamily::kAlgebraic, 3.0, UtilityFamily::kAdaptiveExp, kappa, 3e-3, 7));

  // Fixed-load curves (paper §2 / Figure 1 context): k_max(C) and the
  // total utility it achieves, discrete vs continuum threshold.
  {
    ScenarioSpec spec;
    spec.name = "fixed_load_rigid";
    spec.description = "Sec 2: k_max(C), V(k_max;C) — rigid apps";
    spec.model = ModelKind::kFixedLoad;
    spec.util = UtilityFamily::kRigid;
    spec.util_param = 1.0;
    spec.grid = GridSpec{10.0, 400.0, 40, false};
    registry.add(spec);
    spec.name = "fixed_load_adaptive";
    spec.description = "Sec 2: k_max(C), V(k_max;C) — adaptive apps";
    spec.util = UtilityFamily::kAdaptiveExp;
    spec.util_param = kappa;
    registry.add(spec);
  }

  // Continuum cross-checks (paper §3.2–3.3 closed forms).
  {
    ScenarioSpec spec;
    spec.model = ModelKind::kContinuum;
    spec.grid = GridSpec{10.0, 800.0, 40, false};
    spec.name = "continuum_exp_rigid";
    spec.description = "Sec 3.2: closed-form B,R,delta,Delta — exponential density, rigid";
    spec.load = LoadFamily::kExponential;
    spec.util = UtilityFamily::kRigid;
    spec.util_param = 1.0;
    registry.add(spec);
    spec.name = "continuum_exp_adaptive";
    spec.description = "Sec 3.2: closed-form B,R,delta,Delta — exponential density, piecewise-linear";
    spec.util = UtilityFamily::kPiecewiseLinear;
    spec.util_param = 0.5;
    registry.add(spec);
    spec.name = "continuum_alg_rigid";
    spec.description = "Sec 3.3: closed-form B,R,delta,Delta — Pareto density z=2.5, rigid";
    spec.load = LoadFamily::kAlgebraic;
    spec.load_param = 2.5;
    spec.util = UtilityFamily::kRigid;
    spec.util_param = 1.0;
    registry.add(spec);
    spec.name = "continuum_alg_adaptive";
    spec.description = "Sec 3.3: closed-form B,R,delta,Delta — Pareto density z=2.5, piecewise-linear";
    spec.util = UtilityFamily::kPiecewiseLinear;
    spec.util_param = 0.5;
    registry.add(spec);
  }

  // Simulator vs model: M/M/∞ occupancy is exactly the Poisson case.
  {
    ScenarioSpec spec;
    spec.name = "sim_mm_inf_validation";
    spec.description = "Sim vs model: empirical B,R against analytic (Poisson load, rigid)";
    spec.model = ModelKind::kSimulation;
    spec.load = LoadFamily::kPoisson;
    spec.load_mean = 100.0;
    spec.util = UtilityFamily::kRigid;
    spec.util_param = 1.0;
    spec.grid = GridSpec{60.0, 180.0, 7, false};
    spec.sim_horizon = 2000.0;
    spec.sim_warmup = 200.0;
    registry.add(spec);
  }

  // Admission-control scenarios: three policies (best effort, online
  // k_max, malleable advance booking) replayed on bit-identical traces
  // per grid point, plus an M/M/C/C cross-check against Erlang-B.
  {
    ScenarioSpec spec;
    spec.name = "admission_policy_load";
    spec.description =
        "Admission: best-effort vs online k_max vs advance booking across "
        "arrival rates (shared traces)";
    spec.model = ModelKind::kAdmission;
    spec.util = UtilityFamily::kRigid;
    spec.util_param = 1.0;
    spec.grid = GridSpec{40.0, 160.0, 7, false};
    spec.admission.sweep = AdmissionSweep::kArrivalRate;
    spec.admission.trace.kind = admission::TraceKind::kPoisson;
    spec.admission.trace.mean_duration = 1.0;
    spec.admission.trace.rate = 1.0;
    spec.admission.trace.book_ahead = 1.0;
    spec.admission.trace.cancel_p = 0.05;
    spec.admission.trace.horizon = 300.0;
    spec.admission.warmup = 30.0;
    spec.admission.min_rate_fraction = 0.5;
    spec.admission.max_start_shift = 2.0;
    registry.add(spec);

    spec.name = "admission_bookahead_sweep";
    spec.description =
        "Admission: policy utilities vs mean book-ahead lead at fixed "
        "overload (adaptive apps, counteroffers on)";
    spec.util = UtilityFamily::kPiecewiseLinear;
    spec.util_param = 0.5;
    spec.grid = GridSpec{0.25, 8.0, 7, true};
    spec.admission.sweep = AdmissionSweep::kBookAhead;
    spec.admission.trace.arrival_rate = 110.0;
    spec.admission.trace.cancel_p = 0.1;
    spec.admission.min_rate_fraction = 0.6;
    registry.add(spec);

    spec.name = "admission_mmcc_erlang";
    spec.description =
        "Admission: rigid immediate reservations vs Erlang-B blocking "
        "(M/M/C/C cross-check)";
    spec.util = UtilityFamily::kRigid;
    spec.util_param = 1.0;
    spec.grid = GridSpec{60.0, 140.0, 5, false};
    spec.admission.sweep = AdmissionSweep::kErlangCheck;
    spec.admission.trace.book_ahead = 0.0;
    spec.admission.trace.cancel_p = 0.0;
    spec.admission.trace.horizon = 400.0;
    spec.admission.warmup = 50.0;
    registry.add(spec);
  }

  // Network (net2) scenarios: multi-link policies replayed on
  // bit-identical traces per grid point, validated against the Erlang
  // fixed point, plus a pure mean-field sweep that reaches operating
  // points the simulator cannot.
  {
    ScenarioSpec spec;
    spec.name = "net2_policy_load";
    spec.description =
        "Net2: best effort vs per-link reservation vs DAR (r=0 and r=2) "
        "across per-pair load, full mesh N=6 (shared traces)";
    spec.model = ModelKind::kNet2;
    spec.util = UtilityFamily::kRigid;
    spec.util_param = 1.0;
    spec.grid = GridSpec{2.0, 14.0, 7, false};
    spec.net2.sweep = Net2Sweep::kPairLoad;
    spec.net2.topology = net2::TopologyKind::kFullMesh;
    spec.net2.nodes = 6;
    spec.net2.capacity = 10.0;
    spec.net2.trunk_reserve = 2.0;
    spec.net2.trace.mean_duration = 1.0;
    spec.net2.trace.rate = 1.0;
    spec.net2.trace.horizon = 200.0;
    spec.net2.warmup = 20.0;
    registry.add(spec);

    spec.name = "net2_fixed_point_check";
    spec.description =
        "Net2: DAR (r=2) simulation blocking vs Erlang fixed point across "
        "per-pair load, full mesh N=8";
    spec.grid = GridSpec{4.0, 10.0, 4, false};
    spec.net2.sweep = Net2Sweep::kMeanFieldCheck;
    spec.net2.nodes = 8;
    spec.net2.trace.horizon = 400.0;
    spec.net2.warmup = 40.0;
    registry.add(spec);

    spec.name = "net2_blocking_vs_n";
    spec.description =
        "Net2: DAR (r=2) blocking vs node count against the N-independent "
        "mean-field limit (Fayolle et al. asymptotics)";
    spec.grid = GridSpec{4.0, 10.0, 4, false};
    spec.net2.sweep = Net2Sweep::kNodes;
    spec.net2.trace.pair_arrival_rate = 7.0;
    spec.net2.trace.horizon = 300.0;
    spec.net2.warmup = 30.0;
    registry.add(spec);

    spec.name = "net2_meanfield_scale";
    spec.description =
        "Net2: pure Erlang fixed point across link capacity with per-pair "
        "load placed at 1% Erlang-B blocking (the millions-of-flows path)";
    spec.grid = GridSpec{10.0, 10000.0, 7, true};
    spec.net2.sweep = Net2Sweep::kMeanFieldScale;
    spec.net2.trunk_reserve = 2.0;
    spec.net2.mf_target_blocking = 0.01;
    registry.add(spec);
  }

  return registry;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = build_paper_suite();
  return registry;
}

}  // namespace bevr::runner
