// Traced replays below run_scenario: each layer's public entry points
// called on the same scenario inputs the runner uses, every call inside
// a benchmark span named "<layer>/<call>". The rows they produce are
// returned rendered as CSV, so callers can check them byte for byte
// against run_scenario's.
#pragma once

#include <string>
#include <vector>

#include "bevr/core/variable_load.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/runner/scenario.h"
#include "bevr/runner/thread_pool.h"
#include "common.h"

namespace perfbench {

/// What building evaluation contexts cost, by layer.
struct BuildCost {
  double calib_s = 0.0;
  double calibrations = 0.0;
  double table_s = 0.0;
};

struct Context {
  std::shared_ptr<const bevr::core::VariableLoadModel> model;
  std::shared_ptr<const bevr::kernels::SweepEvaluator> kernel;
};

/// runner::make_memoized_model's construction step by step, each step
/// under its layer's span: the algebraic λ calibration (numerics), the
/// model (core) and its load table (kernels).
[[nodiscard]] Context build_context(const bevr::runner::ScenarioSpec& spec, BuildCost& cost);

/// Figure scenarios through numerics (λ calibration), core (model,
/// welfare, continuum, fixed load) and kernels (tables, evaluate_grid
/// with and without Δ). Adds the kernels.*, core.* and numerics.*
/// per-layer metrics to `out`.
[[nodiscard]] std::vector<std::string> figure_layer_pass(
    const std::vector<const bevr::runner::ScenarioSpec*>& specs, Outcome& out);

/// Flow scenarios through admission (generate_trace, run_admission),
/// net2 (generate_net_trace, run_network, evaluate_mean_field) and sim
/// (FlowSimulator::run), grid points spread over `pool` as the runner
/// spreads them. Adds the admission.*, net2.* and sim.* metrics.
[[nodiscard]] std::vector<std::string> flow_layer_pass(
    const std::vector<const bevr::runner::ScenarioSpec*>& specs, std::uint64_t seed,
    bevr::runner::ThreadPool& pool, Outcome& out);

/// A benchmark span that also adds its duration to an accumulator.
class Timed {
 public:
  Timed(const char* name, double& seconds)
      : span_(name, bench_collector()), seconds_(seconds), start_ns_(mono_ns()) {}
  ~Timed() { seconds_ += seconds_since(start_ns_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  bevr::obs::TraceSpan span_;
  double& seconds_;
  std::int64_t start_ns_;
};

}  // namespace perfbench
