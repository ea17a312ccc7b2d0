// bench_kernels: the batched sweep kernels vs the scalar model.
//
// Three suites:
//  * kernels_point_sweep — B/R/δ/θ across the Figure 2/3/4 grids,
//    scalar VariableLoadModel vs SweepEvaluator, with every row checked
//    for exact equality (the equivalence contract is asserted, not
//    assumed, on the numbers being timed);
//  * kernels_welfare_sweep — the acceptance benchmark: the Poisson
//    rigid welfare scenario through the runner (memo + kernels) against
//    a scalar arm — core::WelfareAnalysis over a bare VariableLoadModel,
//    memoized the way the runner memoizes (point totals in a MemoCache,
//    whole V(C) grids by (lo, hi, n)) — median wall-clock speedup over
//    repetitions. Full mode enforces the ≥3× target via ctx.fail; smoke
//    mode only checks row equality.
//  * kernels_value_batch — microbenchmark of UtilityFunction::
//    value_batch against the scalar value() loop.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bevr/bench/bench_util.h"
#include "bevr/bench/registry.h"
#include "bevr/core/variable_load.h"
#include "bevr/core/welfare.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/poisson.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/runner/runner.h"
#include "bevr/utility/utility.h"

namespace {

using namespace bevr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename T>
inline void keep(T value) {
  __asm__ __volatile__("" : "+m"(value) : : "memory");
}

struct FigureCase {
  const char* name;
  std::shared_ptr<const dist::DiscreteLoad> load;
  std::shared_ptr<const utility::UtilityFunction> pi;
};

std::vector<FigureCase> figure_cases() {
  return {
      {"fig2_poisson_rigid", std::make_shared<dist::PoissonLoad>(100.0),
       std::make_shared<utility::Rigid>(1.0)},
      {"fig3_exponential_adaptive",
       std::make_shared<dist::ExponentialLoad>(
           dist::ExponentialLoad::with_mean(100.0)),
       std::make_shared<utility::AdaptiveExp>()},
      {"fig4_algebraic_rigid",
       std::make_shared<dist::AlgebraicLoad>(
           dist::AlgebraicLoad::with_mean(3.0, 100.0)),
       std::make_shared<utility::Rigid>(1.0)},
  };
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// The welfare rows of `spec` the scalar way, written to `sink` as
/// run_scenario would: core::WelfareAnalysis over a bare
/// VariableLoadModel. Point totals are memoized in a MemoCache and
/// whole V(C) grids by (lo, hi, n), as MemoizedVariableLoad does, so
/// the kernels arm is compared against the same memo shape and only
/// the evaluator differs.
void scalar_welfare_run(const runner::ScenarioSpec& spec,
                        runner::ResultSink& sink) {
  const core::VariableLoadModel model(runner::make_load(spec),
                                      runner::make_utility(spec), spec.eval);
  runner::MemoCache cache;
  const auto total = [&](char tag, double c) {
    return cache.get_or_compute(tag == 'B' ? "VB" : "VR", c, [&] {
      return tag == 'B' ? model.total_best_effort(c)
                        : model.total_reservation(c);
    });
  };
  std::map<std::tuple<char, double, double, int>, std::vector<double>> grids;
  const auto grid_fn = [&](char tag) {
    return [&, tag](double lo, double hi, int n, std::span<double> out) {
      auto [it, fresh] = grids.try_emplace(std::tuple{tag, lo, hi, n});
      if (fresh) {
        const double step = (hi - lo) / (n - 1);
        for (int i = 0; i < n; ++i) {
          const double x = lo + step * i;
          it->second.push_back(tag == 'B' ? model.total_best_effort(x)
                                          : model.total_reservation(x));
        }
      }
      std::copy(it->second.begin(), it->second.end(), out.begin());
    };
  };
  const core::WelfareAnalysis analysis(
      [&](double c) { return total('B', c); },
      [&](double c) { return total('R', c); }, grid_fn('B'), grid_fn('R'),
      model.mean_load());
  runner::RunMetadata metadata;
  metadata.scenario = spec.name;
  sink.begin(metadata, runner::scenario_columns(spec));
  const std::vector<double> prices = spec.grid.values();
  for (std::size_t i = 0; i < prices.size(); ++i) {
    const double p = prices[i];
    const auto be = analysis.best_effort(p);
    const auto rs = analysis.reservation(p);
    sink.row(runner::ResultRow{i,
                               {p, be.capacity, rs.capacity, be.welfare,
                                rs.welfare, analysis.price_ratio(p)}});
  }
  sink.finish(runner::RunSummary{});
}

}  // namespace

BEVR_BENCHMARK(kernels_point_sweep,
               "scalar model vs sweep kernels on the figure grids") {
  const int points = ctx.pick(160, 12);
  const int reps = ctx.pick(3, 1);
  const std::vector<double> grid =
      runner::GridSpec{10.0, 800.0, points, false}.values();
  bench::print_columns({"scalar_s", "kernel_s", "speedup"});
  std::uint64_t evals = 0;
  for (const auto& figure : figure_cases()) {
    const auto model = std::make_shared<core::VariableLoadModel>(
        figure.load, figure.pi);
    const kernels::SweepEvaluator fast(model);
    std::vector<double> speedups;
    double scalar_s = 0.0;
    double kernel_s = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      auto start = Clock::now();
      for (const double c : grid) {
        keep(model->best_effort(c));
        keep(model->reservation(c));
        keep(model->performance_gap(c));
        keep(model->blocking_fraction(c));
      }
      scalar_s = seconds_since(start);
      start = Clock::now();
      const auto rows = fast.evaluate_grid(grid, /*with_bandwidth_gap=*/false);
      kernel_s = seconds_since(start);
      speedups.push_back(scalar_s / kernel_s);
      // Equivalence is asserted on the very numbers being timed.
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const double c = grid[i];
        if (rows[i].best_effort != model->best_effort(c) ||
            rows[i].reservation != model->reservation(c) ||
            rows[i].performance_gap != model->performance_gap(c) ||
            rows[i].blocking != model->blocking_fraction(c)) {
          ctx.fail(std::string(figure.name) + ": kernel row diverges at C=" +
                   std::to_string(c));
          break;
        }
      }
    }
    bench::print_row({scalar_s, kernel_s, median(speedups)});
    bench::print_note(figure.name);
    evals += static_cast<std::uint64_t>(grid.size()) * 4u *
             static_cast<std::uint64_t>(reps);
  }
  ctx.set_items(evals);
}

BEVR_BENCHMARK(kernels_welfare_sweep,
               "Poisson rigid welfare sweep, runner vs memoized scalar") {
  runner::ScenarioSpec spec;
  spec.name = "bench_welfare_poisson_rigid";
  spec.model = runner::ModelKind::kWelfare;
  spec.load = runner::LoadFamily::kPoisson;
  spec.util = runner::UtilityFamily::kRigid;
  spec.util_param = 1.0;
  spec.grid = runner::GridSpec{0.01, 0.4, ctx.pick(16, 4), true};

  const int reps = ctx.pick(3, 1);
  // Both arms write JSONL inside the timed region, as run_scenario into
  // a JsonlSink does, so the ratio compares evaluation stacks only.
  const auto timed_run = [&spec](bool kernels, std::string* rows) {
    std::ostringstream out;
    runner::JsonlSink sink(out);
    const auto start = Clock::now();
    if (kernels) {
      runner::RunOptions options;
      options.threads = 1;
      runner::run_scenario(spec, options, sink);
    } else {
      scalar_welfare_run(spec, sink);
    }
    const double wall = seconds_since(start);
    std::istringstream lines(out.str());
    std::string line;
    rows->clear();
    while (std::getline(lines, line)) {
      if (line.find("\"type\":\"row\"") != std::string::npos) {
        *rows += line + "\n";
      }
    }
    return wall;
  };

  // One untimed runner pass first: the process's first run_scenario
  // resolves git_describe (a fork of sh and git), which would otherwise
  // land in rep 0's kernel arm.
  std::string warm_rows;
  (void)timed_run(true, &warm_rows);

  bench::print_columns({"rep", "scalar_s", "kernel_s", "speedup"});
  std::vector<double> speedups;
  for (int rep = 0; rep < reps; ++rep) {
    std::string scalar_rows;
    std::string kernel_rows;
    const double scalar_s = timed_run(false, &scalar_rows);
    const double kernel_s = timed_run(true, &kernel_rows);
    speedups.push_back(scalar_s / kernel_s);
    bench::print_row({static_cast<double>(rep), scalar_s, kernel_s,
                      scalar_s / kernel_s});
    if (kernel_rows != scalar_rows) {
      ctx.fail("welfare rows diverge between the runner and the scalar arm");
    }
  }
  const double med = median(speedups);
  std::printf("  median speedup: %.2fx\n", med);
  // The PR's acceptance target. Timing is only trustworthy on the full
  // workload; smoke keeps the equality check and skips the gate.
  if (!ctx.smoke() && med < 3.0) {
    ctx.fail("welfare kernel speedup " + std::to_string(med) +
             "x below the 3x target");
  }
  ctx.set_items(static_cast<std::uint64_t>(spec.grid.points) *
                static_cast<std::uint64_t>(2 * reps));
}

BEVR_BENCHMARK(kernels_value_batch,
               "UtilityFunction::value_batch vs the scalar value() loop") {
  const std::size_t n = ctx.pick(std::size_t{8192}, std::size_t{512});
  const std::uint64_t iters = ctx.pick(std::uint64_t{2000}, std::uint64_t{20});
  std::vector<double> bandwidth(n);
  for (std::size_t i = 0; i < n; ++i) {
    bandwidth[i] = 0.001 * static_cast<double>(i + 1);
  }
  std::vector<double> out(n);
  bench::print_columns({"scalar_s", "batch_s", "speedup"});
  const std::vector<std::shared_ptr<const utility::UtilityFunction>> utils = {
      std::make_shared<utility::Elastic>(),
      std::make_shared<utility::AdaptiveExp>(),
      std::make_shared<utility::PiecewiseLinear>(0.5),
  };
  for (const auto& pi : utils) {
    auto start = Clock::now();
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (std::size_t i = 0; i < n; ++i) out[i] = pi->value(bandwidth[i]);
      keep(out[n - 1]);
    }
    const double scalar_s = seconds_since(start);
    start = Clock::now();
    for (std::uint64_t it = 0; it < iters; ++it) {
      pi->value_batch(bandwidth, out);
      keep(out[n - 1]);
    }
    const double batch_s = seconds_since(start);
    bench::print_row({scalar_s, batch_s, scalar_s / batch_s});
    bench::print_note(pi->name());
  }
  ctx.set_items(static_cast<std::uint64_t>(n) * iters *
                static_cast<std::uint64_t>(2 * utils.size()));
}
