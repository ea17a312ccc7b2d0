// Paper-quoted numerical claims (§3.3 text): each row prints the value
// the paper reports next to the value this implementation measures.
// These are the canonical reproduction anchors recorded in
// EXPERIMENTS.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "registry_runs.h"

#include "bevr/bench/registry.h"
#include "bevr/runner/memoized_model.h"

namespace {

void claim(const char* description, double paper, double measured) {
  std::printf("  %-58s paper=%10.4g   measured=%10.4g\n", description, paper,
              measured);
}

}  // namespace

BEVR_BENCHMARK(text_claims, "Sec 3.3 quoted values, paper vs measured") {
  using namespace bevr;
  // The five (load, utility) pairs of Figures 2-4's capacity sweeps,
  // on the registry's evaluation path.
  const auto cache = std::make_shared<runner::MemoCache>();
  const auto model = [&cache](const std::string& scenario) {
    return runner::make_memoized_model(bench::registry_spec(scenario), cache);
  };

  bench::print_header("Section 3.3 quoted values (kbar = 100)");

  // The peak scans dominate the cost; smoke strides them coarsely.
  const double delta_step = ctx.pick(1.0, 16.0);
  const double gap_step = ctx.pick(5.0, 40.0);

  {
    const auto poisson_rigid = model("fig2_rigid");
    double peak_delta = 0.0, peak_gap = 0.0;
    for (double c = 2.0; c <= 150.0; c += delta_step) {
      peak_delta = std::max(peak_delta, poisson_rigid->performance_gap(c));
      peak_gap = std::max(peak_gap, poisson_rigid->bandwidth_gap(c));
    }
    claim("Poisson/rigid: peak performance gap delta", 0.8, peak_delta);
    claim("Poisson/rigid: peak bandwidth gap Delta", 80.0, peak_gap);
    claim("Poisson/rigid: delta at C=2kbar (paper: <1e-15)", 1e-15,
          poisson_rigid->performance_gap(200.0));
  }
  {
    const auto exp_rigid = model("fig3_rigid");
    claim("Exponential/rigid: delta at C=2kbar", 0.27,
          exp_rigid->performance_gap(200.0));
    claim("Exponential/rigid: delta at C=4kbar", 0.07,
          exp_rigid->performance_gap(400.0));
    claim("Exponential/rigid: Delta(400)-Delta(200) (log growth, >0)",
          std::log(2.0) * 100.0,
          exp_rigid->bandwidth_gap(400.0) - exp_rigid->bandwidth_gap(200.0));
  }
  {
    const auto exp_adaptive = model("fig3_adaptive");
    claim("Exponential/adaptive: delta at C=2kbar (paper: <.01)", 0.01,
          exp_adaptive->performance_gap(200.0));
    claim("Exponential/adaptive: delta at C=4kbar (paper: <.001)", 0.001,
          exp_adaptive->performance_gap(400.0));
    double peak = 0.0;
    for (double c = 10.0; c <= 400.0; c += gap_step) {
      peak = std::max(peak, exp_adaptive->bandwidth_gap(c));
    }
    claim("Exponential/adaptive: peak bandwidth gap Delta", 9.0, peak);
  }
  const auto alg_rigid = model("fig4_rigid");
  {
    claim("Algebraic(z=3)/rigid: delta at C=2kbar", 0.20,
          alg_rigid->performance_gap(200.0));
    claim("Algebraic(z=3)/rigid: delta at C=4kbar", 0.10,
          alg_rigid->performance_gap(400.0));
    const double slope =
        (alg_rigid->bandwidth_gap(800.0) - alg_rigid->bandwidth_gap(400.0)) /
        400.0;
    claim("Algebraic(z=3)/rigid: Delta slope (linear, ~1)", 1.0, slope);
    // Contract: the signature asymptotic law must survive any numeric
    // refactor — linear Delta growth with slope near 1 at z=3.
    if (slope < 0.5 || slope > 2.0) {
      ctx.fail("algebraic rigid Delta slope " + std::to_string(slope) +
               " left [0.5, 2.0]");
    }
  }
  {
    const auto alg_adaptive = model("fig4_adaptive");
    const double slope_rigid =
        (alg_rigid->bandwidth_gap(800.0) - alg_rigid->bandwidth_gap(400.0)) /
        400.0;
    const double slope_adaptive = (alg_adaptive->bandwidth_gap(800.0) -
                                   alg_adaptive->bandwidth_gap(400.0)) /
                                  400.0;
    claim("Algebraic(z=3): rigid/adaptive slope ratio (paper: >20)", 20.0,
          slope_rigid / slope_adaptive);
  }
  bench::print_note(
      "paper values are read off its plots; shape/ordering is the target");
}
