#include "bevr/runner/runner.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <cstdio>
#include <functional>
#include <span>
#include <stdexcept>

#include "bevr/admission/engine.h"
#include "bevr/admission/policy.h"
#include "bevr/admission/trace.h"
#include "bevr/core/fixed_load.h"
#include "bevr/core/welfare.h"
#include "bevr/numerics/erlang.h"
#include "bevr/dist/algebraic.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/kernels/warm_kmax.h"
#include "bevr/net2/engine.h"
#include "bevr/net2/fixed_point.h"
#include "bevr/net2/policy.h"
#include "bevr/net2/topology.h"
#include "bevr/net2/trace.h"
#include "bevr/obs/metrics.h"
#include "bevr/obs/trace.h"
#include "bevr/runner/memoized_model.h"
#include "bevr/sim/arrival.h"
#include "bevr/sim/rng.h"
#include "bevr/sim/simulator.h"

namespace bevr::runner {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Instantiate the spec's load, memoizing the algebraic λ-calibration
// (a Hurwitz-zeta root solve) across scenarios sharing the cache.
std::shared_ptr<const dist::DiscreteLoad> make_load_cached(
    const ScenarioSpec& spec, MemoCache& cache) {
  if (spec.load != LoadFamily::kAlgebraic) return make_load(spec);
  const double lambda = cache.get_or_compute2(
      "alg_lambda", spec.load_param, spec.load_mean, [&] {
        return dist::AlgebraicLoad::with_mean(spec.load_param, spec.load_mean)
            .lambda();
      });
  return make_load_with_lambda(spec, lambda);
}

// One evaluated grid point; the body must touch only rows[i].
using Plan = std::function<void(std::int64_t)>;

// make_memoized_model with an optional pre-built utility (the sim plan
// needs the utility itself alongside the façade).
std::shared_ptr<MemoizedVariableLoad> make_variable_model(
    const ScenarioSpec& spec, const std::shared_ptr<MemoCache>& cache,
    std::shared_ptr<const utility::UtilityFunction> pi = nullptr) {
  if (!cache) {
    throw std::invalid_argument("make_memoized_model: a cache is required");
  }
  if (!pi) pi = make_utility(spec);
  auto model = std::make_shared<core::VariableLoadModel>(
      make_load_cached(spec, *cache), std::move(pi), spec.eval);
  auto kernel = std::make_shared<kernels::SweepEvaluator>(model);
  return std::make_shared<MemoizedVariableLoad>(std::move(model), cache,
                                                std::move(kernel));
}

Plan plan_fixed_load(const ScenarioSpec& spec, const std::vector<double>& grid,
                     std::vector<ResultRow>& rows) {
  auto pi = make_utility(spec);
  // k_max resumes from the previous grid point (the grid is sorted),
  // and the capacity-independent continuum share b* — a 2048-point
  // grid refinement — is solved once instead of per point.
  // k_max_continuum(pi, c) is exactly c / optimal_share(pi), so the
  // hoisted division reproduces it bit-for-bit.
  auto warm = std::make_shared<const kernels::WarmKmax>();
  const double share = pi->inelastic()
                           ? core::optimal_share(*pi)
                           : std::numeric_limits<double>::infinity();
  return Plan{[&rows, &grid, pi, warm, share](std::int64_t i) {
        const double c = grid[static_cast<std::size_t>(i)];
        const auto kmax = warm->k_max(*pi, c);
        const double v =
            kmax ? core::total_utility(*pi, c, *kmax)
                 : std::numeric_limits<double>::infinity();
        const double kc = pi->inelastic()
                              ? c / share
                              : std::numeric_limits<double>::infinity();
        rows[static_cast<std::size_t>(i)].values = {
            c, kmax ? static_cast<double>(*kmax) : -1.0, v, kc};
      }};
}

Plan plan_variable_load(const ScenarioSpec& spec,
                        const std::vector<double>& grid,
                        std::vector<ResultRow>& rows,
                        const std::shared_ptr<MemoCache>& cache) {
  auto model = make_variable_model(spec, cache);
  const bool with_gap = spec.with_bandwidth_gap;
  return Plan{[&rows, &grid, model, with_gap](std::int64_t i) {
                const double c = grid[static_cast<std::size_t>(i)];
                const auto kmax = model->k_max(c);
                auto& values = rows[static_cast<std::size_t>(i)].values;
                values = {c, model->best_effort(c), model->reservation(c),
                          model->performance_gap(c)};
                if (with_gap) values.push_back(model->bandwidth_gap(c));
                values.push_back(kmax ? static_cast<double>(*kmax) : -1.0);
                values.push_back(model->blocking_fraction(c));
              }};
}

Plan plan_continuum(const ScenarioSpec& spec, const std::vector<double>& grid,
                    std::vector<ResultRow>& rows) {
  std::shared_ptr<const core::ContinuumModel> model = make_continuum_model(spec);
  const bool with_gap = spec.with_bandwidth_gap;
  return Plan{[&rows, &grid, model, with_gap](std::int64_t i) {
                const double c = grid[static_cast<std::size_t>(i)];
                auto& values = rows[static_cast<std::size_t>(i)].values;
                values = {c, model->best_effort(c), model->reservation(c),
                          model->performance_gap(c)};
                if (with_gap) values.push_back(model->bandwidth_gap(c));
              }};
}

Plan plan_welfare(const ScenarioSpec& spec, const std::vector<double>& grid,
                  std::vector<ResultRow>& rows,
                  const std::shared_ptr<MemoCache>& cache) {
  auto model = make_variable_model(spec, cache);
  auto analysis = std::make_shared<core::WelfareAnalysis>(
      [model](double c) { return model->total_best_effort(c); },
      [model](double c) { return model->total_reservation(c); },
      [model](double lo, double hi, int n, std::span<double> out) {
        model->total_best_effort_grid(lo, hi, n, out);
      },
      [model](double lo, double hi, int n, std::span<double> out) {
        model->total_reservation_grid(lo, hi, n, out);
      },
      model->mean_load());
  return Plan{[&rows, &grid, model, analysis](std::int64_t i) {
        const double p = grid[static_cast<std::size_t>(i)];
        const auto be = analysis->best_effort(p);
        const auto rs = analysis->reservation(p);
        rows[static_cast<std::size_t>(i)].values = {
            p,          be.capacity, rs.capacity,
            be.welfare, rs.welfare,  analysis->price_ratio(p)};
      }};
}

Plan plan_simulation(const ScenarioSpec& spec, const std::vector<double>& grid,
                     std::vector<ResultRow>& rows,
                     const std::shared_ptr<MemoCache>& cache,
                     std::uint64_t base_seed) {
  if (spec.load != LoadFamily::kPoisson) {
    throw std::invalid_argument(
        "run_scenario: simulation scenarios require a Poisson load "
        "(M/M/inf occupancy); got '" +
        to_string(spec.load) + "'");
  }
  auto pi = make_utility(spec);
  auto model = make_variable_model(spec, cache, pi);
  const double rate = spec.load_mean;  // holding mean 1 → occupancy mean k̄
  const double horizon = spec.sim_horizon;
  const double warmup = spec.sim_warmup;
  return Plan{[&rows, &grid, pi, model, rate, horizon, warmup,
               base_seed](std::int64_t i) {
        const double c = grid[static_cast<std::size_t>(i)];
        const auto kmax = model->k_max(c);
        const std::int64_t limit = kmax.value_or(
            static_cast<std::int64_t>(rate * 16));  // effectively no limit

        // Independent sub-streams per (task, architecture): nothing
        // depends on which worker runs the task.
        const sim::Rng root(base_seed);
        const auto simulate = [&](sim::Architecture arch,
                                  std::uint64_t stream) {
          sim::SimulationConfig config;
          config.capacity = c;
          config.architecture = arch;
          config.admission_limit = limit;
          config.horizon = horizon;
          config.warmup = warmup;
          config.seed = root.split(stream).seed();
          const sim::FlowSimulator simulator(
              config, pi, std::make_shared<sim::PoissonArrivals>(rate),
              std::make_shared<sim::ExponentialHolding>(1.0));
          return simulator.run();
        };
        const auto be = simulate(sim::Architecture::kBestEffort,
                                 2 * static_cast<std::uint64_t>(i));
        const auto rs = simulate(sim::Architecture::kReservation,
                                 2 * static_cast<std::uint64_t>(i) + 1);
        rows[static_cast<std::size_t>(i)].values = {
            c,
            static_cast<double>(limit),
            be.mean_utility,
            rs.mean_utility,
            model->best_effort(c),
            model->reservation(c),
            rs.blocking_probability,
            model->blocking_fraction(c)};
      }};
}

Plan plan_admission(const ScenarioSpec& spec, const std::vector<double>& grid,
                    std::vector<ResultRow>& rows, std::uint64_t base_seed) {
  auto pi = make_utility(spec);
  const AdmissionSpec adm = spec.admission;
  return Plan{[&rows, &grid, pi, adm, base_seed](std::int64_t i) {
    // Per-task trace from an index-keyed sub-stream: bit-identical at
    // any thread count, and identical for every policy replaying it.
    admission::TraceSpec tspec = adm.trace;
    const double x = grid[static_cast<std::size_t>(i)];
    switch (adm.sweep) {
      case AdmissionSweep::kArrivalRate:
        tspec.arrival_rate = x;
        break;
      case AdmissionSweep::kBookAhead:
        tspec.book_ahead = x;
        break;
      case AdmissionSweep::kErlangCheck:
        // The grid is offered load E = λ·τ; with τ fixed this is λ.
        tspec.arrival_rate = x / tspec.mean_duration;
        break;
    }
    const sim::Rng root(base_seed);
    const auto trace = admission::generate_trace(
        tspec, root.split(static_cast<std::uint64_t>(i)));
    admission::EngineConfig engine_config;
    engine_config.warmup = adm.warmup;

    admission::PolicyConfig pc;
    pc.capacity = adm.capacity;
    pc.pi = pi;
    pc.tick = adm.tick;

    auto& values = rows[static_cast<std::size_t>(i)].values;
    if (adm.sweep == AdmissionSweep::kErlangCheck) {
      // Rigid immediate reservations on the calendar are exactly an
      // M/M/C/C loss system (releases happen at exact departure
      // times, so tick quantization never leaks into admission);
      // compare the simulated blocking with Erlang-B.
      pc.min_rate_fraction = 1.0;
      pc.max_start_shift = 0.0;
      const auto policy =
          admission::make_policy(admission::PolicyKind::kAdvanceBooking, pc);
      const auto report =
          admission::run_admission(trace, *policy, *pi, engine_config);
      const double offered_load = tspec.arrival_rate * tspec.mean_duration;
      const auto servers = static_cast<std::int64_t>(
          std::floor(adm.capacity / tspec.rate + 1e-9));
      const double model = numerics::erlang_b(offered_load, servers);
      // 3σ binomial half-width at the model's blocking probability.
      // Arrivals within one mean holding time see nearly the same
      // occupancy, so blocking indicators are strongly correlated and
      // the effective number of independent observations is the count
      // of scored holding-time epochs — NOT the offered-arrival count
      // (which would understate the CI by ~√E). The M/M/C/C validation
      // test asserts abs_error <= ci3 per row.
      const double epochs =
          (tspec.horizon - adm.warmup) / tspec.mean_duration;
      const double ci3 =
          epochs > 0.0
              ? 3.0 * std::sqrt(model * (1.0 - model) / epochs)
              : std::numeric_limits<double>::infinity();
      values = {offered_load, report.blocking_probability, model,
                std::abs(report.blocking_probability - model), ci3};
      return;
    }

    const auto run_policy = [&](admission::PolicyKind kind) {
      const auto policy = admission::make_policy(kind, pc);
      return admission::run_admission(trace, *policy, *pi, engine_config);
    };
    const auto best_effort = run_policy(admission::PolicyKind::kBestEffort);
    const auto online = run_policy(admission::PolicyKind::kOnlineKmax);
    pc.min_rate_fraction = adm.min_rate_fraction;
    pc.max_start_shift = adm.max_start_shift;
    pc.shift_step = adm.shift_step;
    const auto advance = run_policy(admission::PolicyKind::kAdvanceBooking);

    values = {x,
              best_effort.mean_utility,
              online.mean_utility,
              advance.mean_utility,
              online.blocking_probability,
              advance.blocking_probability,
              static_cast<double>(advance.counteroffers_accepted),
              static_cast<double>(advance.cancelled)};
  }};
}

Plan plan_net2(const ScenarioSpec& spec, const std::vector<double>& grid,
               std::vector<ResultRow>& rows, std::uint64_t base_seed) {
  auto pi = make_utility(spec);
  const Net2Spec net = spec.net2;
  // A fixed point that stops at max_iterations still fills its row;
  // this counter is what says so.
  const obs::Counter not_converged = obs::MetricsRegistry::global().counter(
      "net2/meanfield/not_converged");
  return Plan{[&rows, &grid, pi, net, base_seed,
               not_converged](std::int64_t i) {
    const double x = grid[static_cast<std::size_t>(i)];
    auto& values = rows[static_cast<std::size_t>(i)].values;

    net2::MeanFieldSpec mf;
    mf.capacity = static_cast<std::int64_t>(net.capacity + 0.5);
    mf.trunk_reserve = static_cast<std::int64_t>(net.trunk_reserve + 0.5);
    mf.damping = net.mf_damping;
    mf.tolerance = net.mf_tolerance;
    const auto mean_field = [&mf, &not_converged] {
      const net2::MeanFieldResult result = net2::evaluate_mean_field(mf);
      if (!result.converged) not_converged.inc();
      return result;
    };

    if (net.sweep == Net2Sweep::kMeanFieldScale) {
      // The grid is per-link capacity; place the per-pair load at the
      // capacity's erlang_b_offered_load operating point so every
      // point sits at the same relative congestion.
      mf.capacity = static_cast<std::int64_t>(x + 0.5);
      mf.pair_load = numerics::erlang_b_offered_load(mf.capacity,
                                                     net.mf_target_blocking);
      const auto result = mean_field();
      values = {static_cast<double>(mf.capacity),
                mf.pair_load,
                result.blocking_direct,
                result.blocking_alternate,
                result.blocking,
                result.overflow_load,
                static_cast<double>(result.iterations)};
      return;
    }

    // Simulation sweeps: per-task trace from an index-keyed sub-stream
    // — bit-identical at any thread count, and identical for every
    // policy replaying it.
    net2::TopologySpec tspec;
    tspec.kind = net.topology;
    tspec.nodes = net.sweep == Net2Sweep::kNodes
                      ? static_cast<int>(x + 0.5)
                      : net.nodes;
    tspec.capacity = net.capacity;
    const net2::Topology topology = net2::build_topology(tspec);

    net2::NetTraceSpec trace_spec = net.trace;
    if (net.sweep != Net2Sweep::kNodes) {
      // The grid is offered erlangs per pair a = λ·τ; with τ fixed
      // this is λ.
      trace_spec.pair_arrival_rate = x / trace_spec.mean_duration;
    }
    const sim::Rng root(base_seed);
    const auto trace = net2::generate_net_trace(
        topology, trace_spec, root.split(static_cast<std::uint64_t>(i)));
    net2::NetEngineConfig engine_config;
    engine_config.warmup = net.warmup;

    net2::NetPolicyConfig pc;
    pc.pi = pi;
    const auto run_policy = [&](net2::NetPolicyKind kind,
                                double trunk_reserve) {
      pc.trunk_reserve = trunk_reserve;
      const auto policy = net2::make_net_policy(kind, topology, pc);
      return net2::run_network(trace, *policy, *pi, engine_config);
    };

    if (net.sweep == Net2Sweep::kPairLoad) {
      const auto best_effort =
          run_policy(net2::NetPolicyKind::kBestEffort, 0.0);
      const auto reserved =
          run_policy(net2::NetPolicyKind::kDirectReservation, 0.0);
      const auto dar0 = run_policy(net2::NetPolicyKind::kDar, 0.0);
      const auto dar_r =
          run_policy(net2::NetPolicyKind::kDar, net.trunk_reserve);
      const double alt_share =
          dar_r.offered > 0 ? static_cast<double>(dar_r.alternate_routed) /
                                  static_cast<double>(dar_r.offered)
                            : 0.0;
      values = {x,
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

    // kMeanFieldCheck / kNodes: DAR at r against the fixed point.
    const auto dar = run_policy(net2::NetPolicyKind::kDar, net.trunk_reserve);
    mf.pair_load = trace_spec.pair_arrival_rate * trace_spec.mean_duration;
    const auto model = mean_field();
    const double abs_error =
        std::abs(dar.blocking_probability - model.blocking);
    if (net.sweep == Net2Sweep::kNodes) {
      values = {static_cast<double>(tspec.nodes), dar.blocking_probability,
                model.blocking, abs_error};
      return;
    }
    // 3σ binomial half-width at the model's blocking probability over
    // the effective number of independent observations: scored
    // holding-time epochs per pair times the pair count (arrivals
    // within one holding time see nearly the same occupancy, so
    // per-arrival indicators are strongly correlated).
    const std::size_t nodes = topology.node_count();
    const double pairs = static_cast<double>(nodes * (nodes - 1) / 2);
    const double epochs = pairs * (trace_spec.horizon - net.warmup) /
                          trace_spec.mean_duration;
    const double ci3 =
        epochs > 0.0
            ? 3.0 * std::sqrt(model.blocking * (1.0 - model.blocking) /
                              epochs)
            : std::numeric_limits<double>::infinity();
    values = {mf.pair_load, dar.blocking_probability, model.blocking,
              abs_error, ci3};
  }};
}

}  // namespace

std::shared_ptr<MemoizedVariableLoad> make_memoized_model(
    const ScenarioSpec& spec, const std::shared_ptr<MemoCache>& cache,
    bool kernels) {
  if (!kernels) {
    throw std::invalid_argument(
        "make_memoized_model: the kernels are the only evaluation path; "
        "pass true");
  }
  return make_variable_model(spec, cache);
}

std::vector<std::string> scenario_columns(const ScenarioSpec& spec) {
  switch (spec.model) {
    case ModelKind::kFixedLoad:
      return {"capacity", "k_max", "total_utility", "k_max_continuum"};
    case ModelKind::kVariableLoad: {
      std::vector<std::string> columns = {"capacity", "best_effort",
                                          "reservation", "delta", "k_max",
                                          "blocking"};
      if (spec.with_bandwidth_gap) {
        columns.insert(columns.begin() + 4, "bandwidth_gap");
      }
      return columns;
    }
    case ModelKind::kContinuum: {
      std::vector<std::string> columns = {"capacity", "best_effort",
                                          "reservation", "delta"};
      if (spec.with_bandwidth_gap) columns.push_back("bandwidth_gap");
      return columns;
    }
    case ModelKind::kWelfare:
      return {"price", "capacity_best_effort", "capacity_reservation",
              "welfare_best_effort", "welfare_reservation", "gamma"};
    case ModelKind::kSimulation:
      return {"capacity", "admission_limit", "sim_best_effort",
              "sim_reservation", "model_best_effort", "model_reservation",
              "sim_blocking", "model_blocking"};
    case ModelKind::kAdmission:
      switch (spec.admission.sweep) {
        case AdmissionSweep::kErlangCheck:
          return {"offered_load", "sim_blocking", "erlang_b", "abs_error",
                  "ci3"};
        case AdmissionSweep::kArrivalRate:
        case AdmissionSweep::kBookAhead:
          return {spec.admission.sweep == AdmissionSweep::kArrivalRate
                      ? "arrival_rate"
                      : "book_ahead",
                  "best_effort_util",
                  "online_kmax_util",
                  "advance_util",
                  "online_blocking",
                  "advance_blocking",
                  "advance_countered",
                  "advance_cancelled"};
      }
      throw std::invalid_argument("scenario_columns: unknown admission sweep");
    case ModelKind::kNet2:
      switch (spec.net2.sweep) {
        case Net2Sweep::kPairLoad:
          return {"pair_load",        "best_effort_util", "reserved_util",
                  "dar_util_r0",      "dar_util_r",       "reserved_blocking",
                  "dar_blocking_r0",  "dar_blocking_r",   "dar_alt_share_r"};
        case Net2Sweep::kMeanFieldCheck:
          return {"pair_load", "sim_blocking", "meanfield_blocking",
                  "abs_error", "ci3"};
        case Net2Sweep::kNodes:
          return {"nodes", "sim_blocking", "meanfield_blocking", "abs_error"};
        case Net2Sweep::kMeanFieldScale:
          return {"capacity",           "pair_load",
                  "blocking_direct",    "blocking_alternate",
                  "meanfield_blocking", "overflow_load",
                  "iterations"};
      }
      throw std::invalid_argument("scenario_columns: unknown net2 sweep");
  }
  throw std::invalid_argument("scenario_columns: unknown model kind");
}

namespace {

// Run a shell command and return its stdout (trailing newlines
// stripped), or "" on any failure. The command must redirect stderr
// itself; /bin/sh complaining about a missing git would otherwise
// reach the terminal mid-CSV.
std::string capture_command(const char* command) {
  FILE* pipe = ::popen(command, "r");
  if (pipe == nullptr) return "";
  char buffer[128] = {};
  std::string out;
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) out += buffer;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (status != 0) return "";
  return out;
}

// Provenance strings ride in CSV '#' comments as space-separated
// key=value pairs; anything with whitespace would corrupt the field.
bool provenance_safe(const std::string& text) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',') {
      return false;
    }
  }
  return !text.empty();
}

}  // namespace

std::string git_describe() {
  // Forking git costs milliseconds — comparable to a whole kernels-path
  // scenario — and the answer cannot change inside one process, so
  // provenance is resolved once and reused by every run_scenario call.
  static const std::string cached = [] {
    const std::string out =
        capture_command("git describe --always --dirty 2>/dev/null");
    return provenance_safe(out) ? out : std::string("unknown");
  }();
  return cached;
}

std::string git_commit_time() {
  // %cI is strict ISO 8601: no spaces, CSV-comment safe.
  static const std::string cached = [] {
    const std::string out =
        capture_command("git show -s --format=%cI HEAD 2>/dev/null");
    return provenance_safe(out) ? out : std::string("unknown");
  }();
  return cached;
}

RunSummary run_scenario(const ScenarioSpec& spec, const RunOptions& options,
                        ResultSink& sink) {
  // Observability handles; all no-ops when the global registry is
  // disabled, and none of them feed back into the computed rows.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::Counter runs_counter = registry.counter("runner/runs");
  const obs::Counter rows_counter = registry.counter("runner/rows");
  const obs::Counter expand_us = registry.counter("runner/phase/expand_us");
  const obs::Counter execute_us = registry.counter("runner/phase/execute_us");
  const obs::Counter emit_us = registry.counter("runner/phase/emit_us");
  const obs::Counter cache_hits = registry.counter("runner/cache/hits");
  const obs::Counter cache_misses = registry.counter("runner/cache/misses");
  const obs::Histogram task_us = registry.histogram("runner/task_us");

  const auto run_start = Clock::now();
  RunSummary summary;

  // -- expand: validate the spec, build the grid, plan and pool ------------
  std::vector<double> grid;
  std::vector<ResultRow> rows;
  std::shared_ptr<MemoCache> cache;
  // This run's lookups reach the obs registry and the summary once, as
  // the stats() difference across expand + execute: a shared cache
  // carries the counts of earlier runs.
  CacheStats cache_before;
  Plan plan;
  ThreadPool* pool = options.pool;
  std::unique_ptr<ThreadPool> owned_pool;
  {
    BEVR_TRACE_SPAN("runner/expand");
    spec.validate();
    grid = spec.grid.values();
    rows.resize(grid.size());
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i].index = i;

    cache = options.cache ? options.cache : std::make_shared<MemoCache>();
    cache_before = cache->stats();

    plan = [&] {
      switch (spec.model) {
        case ModelKind::kFixedLoad:
          return plan_fixed_load(spec, grid, rows);
        case ModelKind::kVariableLoad:
          return plan_variable_load(spec, grid, rows, cache);
        case ModelKind::kContinuum: return plan_continuum(spec, grid, rows);
        case ModelKind::kWelfare:
          return plan_welfare(spec, grid, rows, cache);
        case ModelKind::kSimulation:
          return plan_simulation(spec, grid, rows, cache, options.base_seed);
        case ModelKind::kAdmission:
          return plan_admission(spec, grid, rows, options.base_seed);
        case ModelKind::kNet2:
          return plan_net2(spec, grid, rows, options.base_seed);
      }
      throw std::invalid_argument("run_scenario: unknown model kind");
    }();

    unsigned threads = 1;
    if (pool != nullptr) {
      threads = pool->size();
    } else if (options.threads != 1) {
      owned_pool = std::make_unique<ThreadPool>(options.threads);
      pool = owned_pool.get();
      threads = pool->size();
    }

    RunMetadata metadata;
    metadata.scenario = spec.name;
    metadata.model = to_string(spec.model);
    metadata.git_describe = git_describe();
    metadata.git_time = git_commit_time();
    metadata.base_seed = options.base_seed;
    metadata.threads = threads;
    sink.begin(metadata, scenario_columns(spec));
  }
  summary.expand_seconds = seconds_since(run_start);
  expand_us.add(static_cast<std::uint64_t>(summary.expand_seconds * 1e6));

  // -- execute: the parallel section ---------------------------------------
  std::atomic<std::uint64_t> task_nanos{0};
  const auto execute_start = Clock::now();
  {
    BEVR_TRACE_SPAN("runner/execute");
    parallel_for(pool, static_cast<std::int64_t>(grid.size()),
                 [&](std::int64_t i) {
                   // Causal id per grid point, derived from the same
                   // base seed the task sub-streams use — rerunning a
                   // scenario yields byte-identical task trace ids.
                   BEVR_TRACE_SPAN_CTX(
                       "runner/task",
                       obs::TraceContext::derive(
                           options.base_seed, static_cast<std::uint64_t>(i)));
                   const auto task_start = Clock::now();
                   plan(i);
                   const auto elapsed = static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - task_start)
                           .count());
                   task_nanos.fetch_add(elapsed, std::memory_order_relaxed);
                   task_us.observe(static_cast<double>(elapsed) * 1e-3);
                 });
  }
  summary.execute_seconds = seconds_since(execute_start);
  execute_us.add(static_cast<std::uint64_t>(summary.execute_seconds * 1e6));
  const CacheStats cache_after = cache->stats();
  summary.cache = {cache_after.hits - cache_before.hits,
                   cache_after.misses - cache_before.misses};
  cache_hits.add(summary.cache.hits);
  cache_misses.add(summary.cache.misses);

  // -- emit: stream rows to the sink, strictly in grid order ---------------
  // (after the barrier; the payload cannot depend on scheduling).
  const auto emit_start = Clock::now();
  {
    BEVR_TRACE_SPAN("runner/emit");
    for (const auto& row : rows) sink.row(row);
  }
  summary.emit_seconds = seconds_since(emit_start);
  emit_us.add(static_cast<std::uint64_t>(summary.emit_seconds * 1e6));

  summary.rows = rows.size();
  summary.wall_seconds = seconds_since(run_start);
  summary.task_seconds_total =
      static_cast<double>(task_nanos.load()) * 1e-9;
  runs_counter.inc();
  rows_counter.add(rows.size());

  sink.finish(summary);
  return summary;
}

}  // namespace bevr::runner
