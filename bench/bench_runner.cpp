// bench_runner: the experiment engine vs the hand-rolled serial loop.
//
// Measures, on the registry's fig3_rigid scenario with its grid cut
// short (exponential load, rigid apps, B/R/δ/Δ per capacity):
//  * serial baseline — the plain loop sweep.cpp used to run, no pool,
//    no cache;
//  * the runner at 1/2/4 threads with memoized evaluation, reporting
//    wall-clock speedup and cache hit rate;
//  * payload equality across thread counts (the determinism contract).
// Speedup scales with available cores; on a single-core host the
// parallel runs only demonstrate that determinism and overheads hold.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "registry_runs.h"

#include "bevr/bench/registry.h"
#include "bevr/core/variable_load.h"
#include "bevr/runner/runner.h"

namespace {

using namespace bevr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The registry's fig3_rigid with its grid cut to `grid_points`.
runner::ScenarioSpec bench_scenario(int grid_points) {
  runner::ScenarioSpec spec = bench::registry_spec("fig3_rigid");
  spec.grid.points = grid_points;
  return spec;
}

/// The pre-runner serial path: a bare loop over the grid calling the
/// model directly (what examples/sweep.cpp did).
double serial_baseline(const runner::ScenarioSpec& spec) {
  const core::VariableLoadModel model(runner::make_load(spec),
                                      runner::make_utility(spec), spec.eval);
  const auto start = Clock::now();
  double checksum = 0.0;
  for (const double c : spec.grid.values()) {
    checksum += model.best_effort(c) + model.reservation(c) +
                model.performance_gap(c) + model.bandwidth_gap(c) +
                model.blocking_fraction(c);
  }
  const double elapsed = seconds_since(start);
  std::printf("  serial baseline: %.3fs (checksum %.6f)\n", elapsed, checksum);
  return elapsed;
}

struct TimedRun {
  double wall = 0.0;
  runner::CacheStats cache;
  std::string payload;
};

TimedRun runner_run(const runner::ScenarioSpec& spec, unsigned threads) {
  std::ostringstream out;
  runner::JsonlSink sink(out);
  runner::RunOptions options;
  options.threads = threads;
  const auto start = Clock::now();
  const runner::RunSummary summary = runner::run_scenario(spec, options, sink);
  TimedRun result;
  result.wall = seconds_since(start);
  result.cache = summary.cache;
  // Keep only deterministic data rows for the cross-thread comparison.
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"type\":\"row\"") != std::string::npos) {
      result.payload += line + "\n";
    }
  }
  return result;
}

runner::ScenarioSpec sim_scenario(double horizon) {
  runner::ScenarioSpec spec;
  spec.name = "bench_sim_grid";
  spec.model = runner::ModelKind::kSimulation;
  spec.load = runner::LoadFamily::kPoisson;
  spec.load_mean = 100.0;
  spec.util = runner::UtilityFamily::kRigid;
  spec.util_param = 1.0;
  spec.grid = runner::GridSpec{60.0, 200.0, 8, false};
  spec.sim_horizon = horizon;
  spec.sim_warmup = horizon / 8.0;
  return spec;
}

/// Run the scenario at 1/2/4 threads, reporting wall time, speedup
/// over the 1-thread (inline, poolless) path, cache hit rate, and the
/// determinism check. Returns false if any payload diverged.
bool scale_section(const runner::ScenarioSpec& spec) {
  bevr::bench::print_columns({"threads", "wall_s", "speedup", "hit_rate"});
  std::string reference_payload;
  bool deterministic = true;
  double serial_wall = 0.0;
  for (const unsigned threads : {1u, 2u, 4u}) {
    const TimedRun run = runner_run(spec, threads);
    if (threads == 1) serial_wall = run.wall;
    bevr::bench::print_row({static_cast<double>(threads), run.wall,
                            serial_wall / run.wall, run.cache.hit_rate()});
    if (reference_payload.empty()) {
      reference_payload = run.payload;
    } else if (run.payload != reference_payload) {
      deterministic = false;
    }
  }
  std::printf("  payload identical across thread counts: %s\n",
              deterministic ? "yes" : "NO");
  return deterministic;
}

}  // namespace

BEVR_BENCHMARK(runner, "experiment engine vs serial loop + determinism") {
  bevr::bench::print_header("runner: parallel sweep engine vs serial loop");
  std::printf("  host threads: %u\n", std::thread::hardware_concurrency());

  std::printf("\n  -- model sweep: exponential load (kbar=100), rigid, "
              "B,R,delta,Delta,k_max,blocking --\n");
  const runner::ScenarioSpec model_spec = bench_scenario(ctx.pick(24, 8));
  const double serial = serial_baseline(model_spec);
  const TimedRun engine = runner_run(model_spec, 1);
  std::printf("  engine@1thread:  %.3fs (%.2fx vs bare loop; engine overhead "
              "+ memoized delta)\n",
              engine.wall, serial / engine.wall);
  if (!scale_section(model_spec)) {
    ctx.fail("model sweep payload diverged across thread counts");
  }

  std::printf("\n  -- simulation sweep: M/M/inf validation, 8 capacities x "
              "2 architectures --\n");
  if (!scale_section(sim_scenario(ctx.pick(800.0, 200.0)))) {
    ctx.fail("simulation sweep payload diverged across thread counts");
  }

  bevr::bench::print_note(
      "speedup is bounded by physical cores (1 here => ~1x); determinism "
      "must hold everywhere");
  // 2 sweeps x (serial + 3 threaded runs) grid evaluations is the
  // nominal unit; keep it simple: count the seven engine/serial runs.
  ctx.set_items(7);
}
