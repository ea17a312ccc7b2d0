// Figure 1: "The performance curve π(b) for a rate and delay adaptive
// application" — Eq. (2) with κ = 0.62086.
//
// Prints the adaptive utility curve together with the other utility
// families for visual comparison, plus the small-/large-b asymptotes
// the paper calls out (π ≈ b²/κ near 0, π ≈ 1 − e^{−b} for large b).
#include <cmath>
#include <cstdint>

#include "bevr/bench/bench_util.h"
#include "bevr/bench/registry.h"
#include "bevr/core/fixed_load.h"
#include "bevr/runner/scenario.h"
#include "bevr/utility/utility.h"

BEVR_BENCHMARK(fig1_utility, "Figure 1: utility families + Sec 2 V(k)") {
  using namespace bevr;
  bench::print_header(
      "Figure 1: adaptive utility pi(b) = 1 - exp(-b^2/(kappa+b))");
  const utility::AdaptiveExp adaptive;
  const utility::Rigid rigid(1.0);
  const utility::Elastic elastic;
  const utility::PiecewiseLinear piecewise(0.5);
  bench::print_columns({"b", "adaptive", "small_b_asym", "large_b_asym",
                        "rigid", "elastic", "pwl(a=.5)"});
  const std::vector<double> grid =
      runner::GridSpec{0.0, 4.0, ctx.pick(33, 5), false}.values();
  for (const double b : grid) {
    const double kappa = utility::AdaptiveExp::kPaperKappa;
    bench::print_row({b, adaptive.value(b), b * b / kappa,
                      1.0 - std::exp(-b), rigid.value(b), elastic.value(b),
                      piecewise.value(b)});
  }
  bench::print_note(
      "paper: convex near b=0 (inelastic), concave beyond; pi(1) ~ 0.46");
  bench::print_note("kappa = 0.62086 calibrates k_max(C) = C (footnote 4)");

  // Sec 2's fixed-load story: V(k) = k*pi(C/k) peaks at k_max for
  // inelastic utilities; the rigid curve crashes to zero past the peak
  // while the adaptive one declines gently (why adaptive apps tolerate
  // best-effort overload) and the elastic one never peaks.
  bench::print_header("Sec 2: total utility V(k) = k*pi(C/k), C = 100");
  bench::print_columns({"k", "V_rigid", "V_adaptive", "V_elastic"});
  const utility::Elastic elastic_total;
  const std::vector<std::int64_t> occupancies = {10,  50,  90,  100, 101,
                                                 110, 150, 300, 1000};
  for (const std::int64_t k : occupancies) {
    bench::print_row({static_cast<double>(k),
                      core::total_utility(rigid, 100.0, k),
                      core::total_utility(adaptive, 100.0, k),
                      core::total_utility(elastic_total, 100.0, k)});
  }
  bench::print_note("k_max = 100 for rigid AND adaptive (the kappa "
                    "calibration); elastic V(k) increases forever -> "
                    "admission control never helps it");
  ctx.set_items(5 * grid.size() + 3 * occupancies.size());
}
