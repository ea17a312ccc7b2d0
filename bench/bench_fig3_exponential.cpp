// Figure 3: exponential load distribution (k̄ = 100).
//
// Paper shape targets: rigid delta(2k̄) ≈ .27, delta(4k̄) ≈ .07 and a
// monotonically increasing (logarithmic) Delta(C); adaptive gaps are
// ~10x smaller with Delta peaking ≈ 9 near C ≈ 0.4·k̄ then declining;
// gamma(p) → 1 as p → 0 for both.
#include "registry_runs.h"

#include "bevr/bench/registry.h"

BEVR_BENCHMARK(fig3_exponential,
               "Figure 3 panels: exponential load, kbar=100") {
  ctx.set_items(bevr::bench::run_figure("Figure 3 [Exponential, kbar=100]",
                                        "fig3", ctx.pick(40, 8),
                                        ctx.pick(9, 3)));
}
