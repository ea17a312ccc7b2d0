// Figure 2: Poisson load distribution (k̄ = 100) — utility, bandwidth
// gap, and equalising price ratio for rigid and adaptive applications.
//
// Paper shape targets: delta peaks ~0.8 (rigid) below C = k̄; Delta
// peaks ~80; both vanish faster than exponentially for C > k̄; the
// adaptive panels show near-coincident B and R; gamma(p) sits in
// [1.1, 1.2] for rigid over most prices and ~1 for adaptive.
#include "registry_runs.h"

#include "bevr/bench/registry.h"

BEVR_BENCHMARK(fig2_poisson, "Figure 2 panels: Poisson load, kbar=100") {
  ctx.set_items(bevr::bench::run_figure("Figure 2 [Poisson, kbar=100]",
                                        "fig2", ctx.pick(40, 8),
                                        ctx.pick(9, 3)));
}
