// Bench suites that print the paper's figures from registry runs: the
// scenarios bevr_run runs and the goldens pin, evaluated by
// run_scenario on one MemoCache at one thread.
//
// Figures 2, 3 and 4 each show, for one load distribution (k̄ = 100),
// six panels —
//   (a) utilities B(C), R(C) under rigid applications
//   (b) bandwidth gap Δ(C) under rigid applications
//   (c) equalising price ratio γ(p) under rigid applications
//   (d,e,f) the same three under adaptive applications —
// taken from the rows of the figure's four registry scenarios
// figN_{rigid,adaptive} (a/b, d/e) and figN_welfare_{rigid,adaptive}
// (c, f).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bevr/bench/bench_util.h"
#include "bevr/runner/runner.h"

namespace bevr::bench {

/// The built-in registry scenario `name`; throws if there is none.
inline const runner::ScenarioSpec& registry_spec(const std::string& name) {
  const runner::ScenarioSpec* spec =
      runner::ScenarioRegistry::builtin().find(name);
  if (spec == nullptr) {
    throw std::invalid_argument("no registry scenario '" + name + "'");
  }
  return *spec;
}

/// Rows of registry scenario `name` with its grid cut to `points`,
/// run inline (1 thread) through `cache`.
inline std::vector<runner::ResultRow> registry_rows(
    const std::string& name, int points,
    const std::shared_ptr<runner::MemoCache>& cache) {
  runner::ScenarioSpec spec = registry_spec(name);
  spec.grid.points = points;
  runner::RunOptions options;
  options.cache = cache;
  runner::VectorSink sink;
  runner::run_scenario(spec, options, sink);
  return sink.rows();
}

/// Print the six panels of `figure` ("fig2", ...) under `title` over
/// `capacities` capacity and `prices` price grid points. Returns the
/// model evaluations performed (for Context::set_items): per
/// architecture, four values per capacity and a welfare analysis per
/// price.
inline std::uint64_t run_figure(const std::string& title,
                                const std::string& figure, int capacities,
                                int prices) {
  const auto cache = std::make_shared<runner::MemoCache>();
  for (const char* label : {"rigid", "adaptive"}) {
    // Variable-load rows: capacity, B, R, δ, Δ, k_max, blocking.
    const auto sweep = registry_rows(figure + "_" + label, capacities, cache);
    // Welfare rows: p, C_B, C_R, W_B, W_R, γ.
    const auto welfare =
        registry_rows(figure + "_welfare_" + label, prices, cache);
    const std::string panel = title + " (" + label + "): ";

    print_header(panel + "utilities B(C), R(C)");
    print_columns({"C", "B(C)", "R(C)", "delta(C)"});
    for (const auto& row : sweep) {
      print_row({row.values[0], row.values[1], row.values[2], row.values[3]});
    }

    print_header(panel + "bandwidth gap Delta(C)");
    print_columns({"C", "Delta(C)", "(C+D)/C"});
    for (const auto& row : sweep) {
      const double c = row.values[0];
      const double gap = row.values[4];
      print_row({c, gap, (c + gap) / c});
    }

    print_header(panel + "equalising price ratio gamma(p)");
    print_columns({"p", "C_B(p)", "C_R(p)", "W_B(p)", "W_R(p)", "gamma(p)"});
    for (const auto& row : welfare) print_row(row.values);
  }
  return 2 * (4 * static_cast<std::uint64_t>(capacities) +
              static_cast<std::uint64_t>(prices));
}

}  // namespace bevr::bench
