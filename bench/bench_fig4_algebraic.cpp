// Figure 4: algebraic load distribution (z = 3, k̄ = 100).
//
// Paper shape targets: rigid delta stays substantial over a wide range
// (~.20 at 2k̄) and Delta(C) grows LINEARLY with slope ≈ 1; adaptive
// Delta still grows linearly but with slope reduced by a factor > 20;
// gamma(p) does NOT converge to 1 as p → 0 (→ ≈ 2 for rigid, the
// continuum value (z−1)^{1/(z−2)}). The welfare scenarios run at the
// cheaper evaluation budget heavy tails demand (see the registry).
#include "registry_runs.h"

#include "bevr/bench/registry.h"

BEVR_BENCHMARK(fig4_algebraic,
               "Figure 4 panels: algebraic load z=3, kbar=100") {
  ctx.set_items(bevr::bench::run_figure(
      "Figure 4 [Algebraic z=3, kbar=100]", "fig4", ctx.pick(40, 8),
      ctx.pick(7, 3)));
}
