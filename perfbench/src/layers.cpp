#include "layers.h"

#include <cmath>
#include <limits>
#include <memory>
#include <span>

#include "bevr/admission/engine.h"
#include "bevr/admission/policy.h"
#include "bevr/admission/trace.h"
#include "bevr/core/fixed_load.h"
#include "bevr/core/welfare.h"
#include "bevr/dist/algebraic.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/kernels/warm_kmax.h"
#include "bevr/net2/engine.h"
#include "bevr/net2/fixed_point.h"
#include "bevr/net2/policy.h"
#include "bevr/net2/topology.h"
#include "bevr/net2/trace.h"
#include "bevr/numerics/erlang.h"
#include "bevr/runner/memoized_model.h"
#include "bevr/runner/runner.h"
#include "bevr/sim/arrival.h"
#include "bevr/sim/rng.h"
#include "bevr/sim/simulator.h"

namespace perfbench {

namespace {

using namespace bevr;
using runner::ScenarioSpec;
using Rows = std::vector<std::vector<double>>;

double kmax_value(const std::optional<std::int64_t>& kmax) {
  return kmax ? static_cast<double>(*kmax) : -1.0;
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

}  // namespace

Context build_context(const ScenarioSpec& spec, BuildCost& cost) {
  const auto pi = runner::make_utility(spec);
  std::shared_ptr<const dist::DiscreteLoad> load;
  if (spec.load == runner::LoadFamily::kAlgebraic) {
    double lambda = 0.0;
    {
      Timed t("numerics/lambda_calib", cost.calib_s);
      lambda = dist::AlgebraicLoad::with_mean(spec.load_param, spec.load_mean).lambda();
    }
    cost.calibrations += 1.0;
    load = runner::make_load_with_lambda(spec, lambda);
  } else {
    const obs::TraceSpan span("core/model", bench_collector());
    load = runner::make_load(spec);
  }
  Context context;
  {
    const obs::TraceSpan span("core/model", bench_collector());
    context.model = std::make_shared<core::VariableLoadModel>(load, pi, spec.eval);
  }
  Timed t("kernels/table_build", cost.table_s);
  context.kernel = std::make_shared<kernels::SweepEvaluator>(context.model);
  return context;
}

std::vector<std::string> figure_layer_pass(const std::vector<const ScenarioSpec*>& specs,
                                           Outcome& out) {
  BuildCost build;
  double sorted_s = 0.0, gap_s = 0.0, welfare_s = 0.0, ratio_s = 0.0, fixed_s = 0.0;
  double continuum_s = 0.0, sorted_rows = 0.0, gap_rows = 0.0, prices = 0.0;
  std::uint64_t probes = 0, warm = 0, cold = 0;
  const std::uint64_t terms_before = counter_value("kernels/table_terms");

  std::vector<std::string> csv;
  for (const ScenarioSpec* spec : specs) {
    const std::vector<double> grid = spec->grid.values();
    Rows rows;
    switch (spec->model) {
      case runner::ModelKind::kVariableLoad:
      case runner::ModelKind::kWelfare: {
        const auto [model, kernel] = build_context(*spec, build);
        if (spec->model == runner::ModelKind::kVariableLoad) {
          const std::uint64_t p0 = counter_value("kernels/kmax/probes");
          const std::uint64_t w0 = counter_value("kernels/kmax/warm_hits");
          const std::uint64_t c0 = counter_value("kernels/kmax/cold_starts");
          double plain_s = 0.0;
          std::vector<kernels::SweepEvaluator::Row> result;
          {
            Timed t("kernels/evaluate_grid", plain_s);
            result = kernel->evaluate_grid(grid, false);
          }
          probes += counter_value("kernels/kmax/probes") - p0;
          warm += counter_value("kernels/kmax/warm_hits") - w0;
          cold += counter_value("kernels/kmax/cold_starts") - c0;
          sorted_s += plain_s;
          sorted_rows += static_cast<double>(grid.size());
          if (spec->with_bandwidth_gap) {
            // Δ(C) cost = the same grid with the gap column minus without.
            double with_s = 0.0;
            {
              Timed t("core/evaluate_grid_gap", with_s);
              result = kernel->evaluate_grid(grid, true);
            }
            gap_s += with_s - plain_s;
            gap_rows += static_cast<double>(grid.size());
          }
          for (const auto& r : result) {
            std::vector<double> values{r.capacity, r.best_effort, r.reservation,
                                       r.performance_gap};
            if (spec->with_bandwidth_gap) values.push_back(r.bandwidth_gap);
            values.push_back(r.k_max);
            values.push_back(r.blocking);
            rows.push_back(std::move(values));
          }
        } else {
          // The runner's welfare plan: the memoizing façade over the
          // kernel, scanned through WelfareAnalysis per price.
          auto memo = std::make_shared<runner::MemoizedVariableLoad>(
              model, std::make_shared<runner::MemoCache>(), kernel);
          const core::WelfareAnalysis analysis(
              [memo](double c) { return memo->total_best_effort(c); },
              [memo](double c) { return memo->total_reservation(c); },
              [memo](double lo, double hi, int n, std::span<double> o) {
                memo->total_best_effort_grid(lo, hi, n, o);
              },
              [memo](double lo, double hi, int n, std::span<double> o) {
                memo->total_reservation_grid(lo, hi, n, o);
              },
              memo->mean_load());
          for (const double p : grid) {
            core::WelfarePoint be;
            core::WelfarePoint rs;
            {
              Timed t("core/welfare", welfare_s);
              be = analysis.best_effort(p);
              rs = analysis.reservation(p);
            }
            double ratio = 0.0;
            {
              Timed t("core/price_ratio", ratio_s);
              ratio = analysis.price_ratio(p);
            }
            prices += 1.0;
            rows.push_back({p, be.capacity, rs.capacity, be.welfare, rs.welfare, ratio});
          }
        }
        break;
      }
      case runner::ModelKind::kFixedLoad: {
        Timed t("core/fixed_load", fixed_s);
        const auto pi = runner::make_utility(*spec);
        const kernels::WarmKmax warm_kmax;
        const double opt = pi->inelastic() ? core::optimal_share(*pi)
                                           : std::numeric_limits<double>::infinity();
        for (const double c : grid) {
          const auto kmax = warm_kmax.k_max(*pi, c);
          rows.push_back({c, kmax_value(kmax),
                          kmax ? core::total_utility(*pi, c, *kmax)
                               : std::numeric_limits<double>::infinity(),
                          pi->inelastic() ? c / opt : std::numeric_limits<double>::infinity()});
        }
        break;
      }
      case runner::ModelKind::kContinuum: {
        Timed t("core/continuum", continuum_s);
        const auto model = runner::make_continuum_model(*spec);
        for (const double c : grid) {
          std::vector<double> values{c, model->best_effort(c), model->reservation(c),
                                     model->performance_gap(c)};
          if (spec->with_bandwidth_gap) values.push_back(model->bandwidth_gap(c));
          rows.push_back(std::move(values));
        }
        break;
      }
      default:
        throw std::logic_error("figure_layer_pass: " + spec->name + " is not a figure scenario");
    }
    csv.push_back(render_csv(*spec, rows));
  }

  out.metric("kernels.table_build_ms", build.table_s * 1e3, "ms");
  out.metric("kernels.table_terms",
             static_cast<double>(counter_value("kernels/table_terms") - terms_before), "count");
  out.metric("kernels.row_us_sorted", share(sorted_s * 1e6, sorted_rows), "us");
  out.metric("kernels.kmax_probes_per_row", share(static_cast<double>(probes), sorted_rows),
             "count");
  out.metric("kernels.kmax_warm_share",
             share(static_cast<double>(warm), static_cast<double>(warm + cold)), "fraction");
  out.metric("core.gap_ms_per_row", share(gap_s * 1e3, gap_rows), "ms");
  out.metric("core.welfare_ms_per_price", share(welfare_s * 1e3, prices), "ms");
  out.metric("numerics.lambda_calib_ms", share(build.calib_s * 1e3, build.calibrations), "ms");
  return csv;
}

namespace {

/// What one grid point of a flow scenario cost, per layer.
struct PointCost {
  double admission_trace_s = 0.0, admission_engine_s = 0.0;
  double net2_trace_s = 0.0, net2_engine_s = 0.0, meanfield_s = 0.0, sim_s = 0.0;
  std::uint64_t requests = 0, counteroffers = 0, countered = 0;
  std::uint64_t calls = 0, dar_offered = 0, dar_alternate = 0, meanfield_iters = 0;
  std::vector<double> values;
};

/// plan_admission's point, through generate_trace and run_admission.
void admission_point(const ScenarioSpec& spec,
                     const std::shared_ptr<const utility::UtilityFunction>& pi, double x,
                     std::uint64_t index, std::uint64_t seed, PointCost& cost) {
  const runner::AdmissionSpec& adm = spec.admission;
  admission::TraceSpec tspec = adm.trace;
  switch (adm.sweep) {
    case runner::AdmissionSweep::kArrivalRate: tspec.arrival_rate = x; break;
    case runner::AdmissionSweep::kBookAhead: tspec.book_ahead = x; break;
    case runner::AdmissionSweep::kErlangCheck: tspec.arrival_rate = x / tspec.mean_duration; break;
  }
  admission::ArrivalTrace trace;
  {
    Timed t("admission/trace_gen", cost.admission_trace_s);
    trace = admission::generate_trace(tspec, sim::Rng(seed).split(index));
  }
  admission::EngineConfig engine;
  engine.warmup = adm.warmup;
  admission::PolicyConfig pc;
  pc.capacity = adm.capacity;
  pc.pi = pi;
  pc.tick = adm.tick;
  const auto run = [&](admission::PolicyKind kind) {
    Timed t("admission/engine", cost.admission_engine_s);
    const auto policy = admission::make_policy(kind, pc);
    cost.requests += trace.requests.size();
    return admission::run_admission(trace, *policy, *pi, engine);
  };
  if (adm.sweep == runner::AdmissionSweep::kErlangCheck) {
    pc.min_rate_fraction = 1.0;
    pc.max_start_shift = 0.0;
    const auto report = run(admission::PolicyKind::kAdvanceBooking);
    const double offered = tspec.arrival_rate * tspec.mean_duration;
    const auto servers =
        static_cast<std::int64_t>(std::floor(adm.capacity / tspec.rate + 1e-9));
    double model = 0.0;
    {
      const obs::TraceSpan span("numerics/erlang_b", bench_collector());
      model = numerics::erlang_b(offered, servers);
    }
    const double epochs = (tspec.horizon - adm.warmup) / tspec.mean_duration;
    const double ci3 = epochs > 0.0 ? 3.0 * std::sqrt(model * (1.0 - model) / epochs)
                                    : std::numeric_limits<double>::infinity();
    cost.values = {offered, report.blocking_probability, model,
                   std::abs(report.blocking_probability - model), ci3};
    return;
  }
  const auto best_effort = run(admission::PolicyKind::kBestEffort);
  const auto online = run(admission::PolicyKind::kOnlineKmax);
  pc.min_rate_fraction = adm.min_rate_fraction;
  pc.max_start_shift = adm.max_start_shift;
  pc.shift_step = adm.shift_step;
  const auto advance = run(admission::PolicyKind::kAdvanceBooking);
  cost.counteroffers += advance.counteroffers;
  cost.countered += advance.counteroffers_accepted;
  cost.values = {x,
                 best_effort.mean_utility,
                 online.mean_utility,
                 advance.mean_utility,
                 online.blocking_probability,
                 advance.blocking_probability,
                 static_cast<double>(advance.counteroffers_accepted),
                 static_cast<double>(advance.cancelled)};
}

/// plan_net2's point, through the topology builder, generate_net_trace,
/// run_network per policy and evaluate_mean_field.
void net2_point(const ScenarioSpec& spec, const std::shared_ptr<const utility::UtilityFunction>& pi,
                double x, std::uint64_t index, std::uint64_t seed, PointCost& cost) {
  const runner::Net2Spec& net = spec.net2;
  net2::MeanFieldSpec mf;
  mf.capacity = static_cast<std::int64_t>(net.capacity + 0.5);
  mf.trunk_reserve = static_cast<std::int64_t>(net.trunk_reserve + 0.5);
  mf.damping = net.mf_damping;
  mf.tolerance = net.mf_tolerance;
  const auto mean_field = [&] {
    Timed t("net2/meanfield", cost.meanfield_s);
    auto result = net2::evaluate_mean_field(mf);
    cost.meanfield_iters += static_cast<std::uint64_t>(result.iterations);
    return result;
  };

  if (net.sweep == runner::Net2Sweep::kMeanFieldScale) {
    mf.capacity = static_cast<std::int64_t>(x + 0.5);
    {
      const obs::TraceSpan span("numerics/erlang_b_inverse", bench_collector());
      mf.pair_load = numerics::erlang_b_offered_load(mf.capacity, net.mf_target_blocking);
    }
    const auto r = mean_field();
    cost.values = {static_cast<double>(mf.capacity), mf.pair_load, r.blocking_direct,
                   r.blocking_alternate, r.blocking, r.overflow_load,
                   static_cast<double>(r.iterations)};
    return;
  }

  net2::TopologySpec tspec;
  tspec.kind = net.topology;
  tspec.nodes = net.sweep == runner::Net2Sweep::kNodes ? static_cast<int>(x + 0.5) : net.nodes;
  tspec.capacity = net.capacity;
  net2::Topology topology;
  {
    const obs::TraceSpan span("net2/topology", bench_collector());
    topology = net2::build_topology(tspec);
  }
  net2::NetTraceSpec trace_spec = net.trace;
  if (net.sweep != runner::Net2Sweep::kNodes) {
    trace_spec.pair_arrival_rate = x / trace_spec.mean_duration;
  }
  net2::NetTrace trace;
  {
    Timed t("net2/trace_gen", cost.net2_trace_s);
    trace = net2::generate_net_trace(topology, trace_spec, sim::Rng(seed).split(index));
  }
  net2::NetEngineConfig engine;
  engine.warmup = net.warmup;
  net2::NetPolicyConfig pc;
  pc.pi = pi;
  const auto run = [&](net2::NetPolicyKind kind, double trunk_reserve) {
    Timed t("net2/engine", cost.net2_engine_s);
    pc.trunk_reserve = trunk_reserve;
    const auto policy = net2::make_net_policy(kind, topology, pc);
    cost.calls += trace.requests.size();
    auto report = net2::run_network(trace, *policy, *pi, engine);
    if (kind == net2::NetPolicyKind::kDar) {
      cost.dar_offered += report.offered;
      cost.dar_alternate += report.alternate_routed;
    }
    return report;
  };

  if (net.sweep == runner::Net2Sweep::kPairLoad) {
    const auto best_effort = run(net2::NetPolicyKind::kBestEffort, 0.0);
    const auto reserved = run(net2::NetPolicyKind::kDirectReservation, 0.0);
    const auto dar0 = run(net2::NetPolicyKind::kDar, 0.0);
    const auto dar_r = run(net2::NetPolicyKind::kDar, net.trunk_reserve);
    const double alt_share =
        dar_r.offered > 0 ? static_cast<double>(dar_r.alternate_routed) /
                                static_cast<double>(dar_r.offered)
                          : 0.0;
    cost.values = {x,
                   best_effort.mean_utility,
                   reserved.mean_utility,
                   dar0.mean_utility,
                   dar_r.mean_utility,
                   reserved.blocking_probability,
                   dar0.blocking_probability,
                   dar_r.blocking_probability,
                   alt_share};
    return;
  }
  const auto dar = run(net2::NetPolicyKind::kDar, net.trunk_reserve);
  mf.pair_load = trace_spec.pair_arrival_rate * trace_spec.mean_duration;
  const auto model = mean_field();
  const double abs_error = std::abs(dar.blocking_probability - model.blocking);
  if (net.sweep == runner::Net2Sweep::kNodes) {
    cost.values = {static_cast<double>(tspec.nodes), dar.blocking_probability, model.blocking,
                   abs_error};
    return;
  }
  const std::size_t nodes = topology.node_count();
  const double pairs = static_cast<double>(nodes * (nodes - 1) / 2);
  const double epochs = pairs * (trace_spec.horizon - net.warmup) / trace_spec.mean_duration;
  const double ci3 =
      epochs > 0.0 ? 3.0 * std::sqrt(model.blocking * (1.0 - model.blocking) / epochs)
                   : std::numeric_limits<double>::infinity();
  cost.values = {mf.pair_load, dar.blocking_probability, model.blocking, abs_error, ci3};
}

/// plan_simulation's point: FlowSimulator::run per architecture, next
/// to the memoized model's analytic values.
void sim_point(const ScenarioSpec& spec, const std::shared_ptr<const utility::UtilityFunction>& pi,
               const runner::MemoizedVariableLoad& model, double c, std::uint64_t index,
               std::uint64_t seed, PointCost& cost) {
  std::optional<std::int64_t> kmax;
  {
    const obs::TraceSpan span("kernels/point", bench_collector());
    kmax = model.k_max(c);
  }
  const double rate = spec.load_mean;
  const std::int64_t limit = kmax.value_or(static_cast<std::int64_t>(rate * 16));
  const sim::Rng root(seed);
  const auto simulate = [&](sim::Architecture arch, std::uint64_t stream) {
    Timed t("sim/run", cost.sim_s);
    sim::SimulationConfig config;
    config.capacity = c;
    config.architecture = arch;
    config.admission_limit = limit;
    config.horizon = spec.sim_horizon;
    config.warmup = spec.sim_warmup;
    config.seed = root.split(stream).seed();
    const sim::FlowSimulator simulator(config, pi, std::make_shared<sim::PoissonArrivals>(rate),
                                       std::make_shared<sim::ExponentialHolding>(1.0));
    return simulator.run();
  };
  const auto be = simulate(sim::Architecture::kBestEffort, 2 * index);
  const auto rs = simulate(sim::Architecture::kReservation, 2 * index + 1);
  const obs::TraceSpan span("kernels/point", bench_collector());
  cost.values = {c,
                 static_cast<double>(limit),
                 be.mean_utility,
                 rs.mean_utility,
                 model.best_effort(c),
                 model.reservation(c),
                 rs.blocking_probability,
                 model.blocking_fraction(c)};
}

}  // namespace

std::vector<std::string> flow_layer_pass(const std::vector<const ScenarioSpec*>& specs,
                                         std::uint64_t seed, runner::ThreadPool& pool,
                                         Outcome& out) {
  PointCost total;
  std::uint64_t sim_events = 0;
  std::vector<std::string> csv;
  for (const ScenarioSpec* spec : specs) {
    const std::vector<double> grid = spec->grid.values();
    const auto pi = runner::make_utility(*spec);
    std::shared_ptr<runner::MemoizedVariableLoad> model;
    if (spec->model == runner::ModelKind::kSimulation) {
      const obs::TraceSpan span("kernels/table_build", bench_collector());
      model = runner::make_memoized_model(*spec, std::make_shared<runner::MemoCache>(), true);
    }
    const std::uint64_t events_before = counter_value("sim/events");
    std::vector<PointCost> costs(grid.size());
    runner::parallel_for(&pool, static_cast<std::int64_t>(grid.size()), [&](std::int64_t i) {
      const auto index = static_cast<std::size_t>(i);
      const auto u = static_cast<std::uint64_t>(i);
      switch (spec->model) {
        case runner::ModelKind::kAdmission:
          admission_point(*spec, pi, grid[index], u, seed, costs[index]);
          break;
        case runner::ModelKind::kNet2:
          net2_point(*spec, pi, grid[index], u, seed, costs[index]);
          break;
        case runner::ModelKind::kSimulation:
          sim_point(*spec, pi, *model, grid[index], u, seed, costs[index]);
          break;
        default:
          throw std::logic_error("flow_layer_pass: " + spec->name + " is not a flow scenario");
      }
    });
    sim_events += counter_value("sim/events") - events_before;
    Rows rows;
    for (PointCost& c : costs) {
      total.admission_trace_s += c.admission_trace_s;
      total.admission_engine_s += c.admission_engine_s;
      total.net2_trace_s += c.net2_trace_s;
      total.net2_engine_s += c.net2_engine_s;
      total.meanfield_s += c.meanfield_s;
      total.sim_s += c.sim_s;
      total.requests += c.requests;
      total.counteroffers += c.counteroffers;
      total.countered += c.countered;
      total.calls += c.calls;
      total.dar_offered += c.dar_offered;
      total.dar_alternate += c.dar_alternate;
      total.meanfield_iters += c.meanfield_iters;
      rows.push_back(std::move(c.values));
    }
    csv.push_back(render_csv(*spec, rows));
  }
  const auto requests = static_cast<double>(total.requests);
  const auto calls = static_cast<double>(total.calls);
  const auto events = static_cast<double>(sim_events);
  out.metric("admission.trace_gen_s", total.admission_trace_s, "s");
  out.metric("admission.engine_s", total.admission_engine_s, "s");
  out.metric("admission.requests", requests, "count");
  out.metric("admission.ns_per_request", share(total.admission_engine_s * 1e9, requests), "ns");
  out.metric("admission.counteroffer_accept_share",
             share(static_cast<double>(total.countered), static_cast<double>(total.counteroffers)),
             "fraction");
  out.metric("net2.trace_gen_s", total.net2_trace_s, "s");
  out.metric("net2.engine_s", total.net2_engine_s, "s");
  out.metric("net2.calls", calls, "count");
  out.metric("net2.ns_per_call", share(total.net2_engine_s * 1e9, calls), "ns");
  out.metric("net2.alt_route_share",
             share(static_cast<double>(total.dar_alternate), static_cast<double>(total.dar_offered)),
             "fraction");
  out.metric("net2.meanfield_ms", total.meanfield_s * 1e3, "ms");
  out.metric("net2.meanfield_iters", static_cast<double>(total.meanfield_iters), "count");
  out.metric("sim.run_s", total.sim_s, "s");
  out.metric("sim.events", events, "count");
  out.metric("sim.ns_per_event", share(total.sim_s * 1e9, events), "ns");
  return csv;
}

}  // namespace perfbench
