// Sampling extension (§5.1): a flow's performance is driven by the
// worst of S load samples. Regenerates the quoted effects:
//  * Poisson case barely moves;
//  * exponential + adaptive: delta near k̄ jumps from <.01 to ≈.2, and
//    the Delta peak grows to ≈ 2k̄ around C ≈ 1.5k̄ (still → 0);
//  * algebraic: the asymptotic capacity ratio grows to
//    (S(z−1))^{1/(z−2)}, breaking the basic model's e bound as z→2⁺.
#include <memory>

#include "bevr/bench/bench_util.h"
#include "bevr/bench/registry.h"
#include "bevr/core/asymptotics.h"
#include "bevr/core/sampling.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/poisson.h"
#include "bevr/runner/scenario.h"
#include "bevr/utility/utility.h"

BEVR_BENCHMARK(sampling, "Sec 5.1 sampling extension panels") {
  using namespace bevr;
  const auto poisson = std::make_shared<dist::PoissonLoad>(100.0);
  const auto exponential = std::make_shared<dist::ExponentialLoad>(
      dist::ExponentialLoad::with_mean(100.0));
  const auto algebraic = std::make_shared<dist::AlgebraicLoad>(
      dist::AlgebraicLoad::with_mean(3.0, 100.0));
  const auto rigid = std::make_shared<utility::Rigid>(1.0);
  const auto adaptive = std::make_shared<utility::AdaptiveExp>();
  std::uint64_t evaluations = 0;

  {
    bench::print_header(
        "Sampling, exponential + adaptive: delta(C) for S in {1,2,5,10}");
    const core::SamplingModel s1(exponential, adaptive, 1);
    const core::SamplingModel s2(exponential, adaptive, 2);
    const core::SamplingModel s5(exponential, adaptive, 5);
    const core::SamplingModel s10(exponential, adaptive, 10);
    bench::print_columns({"C", "S=1", "S=2", "S=5", "S=10"});
    for (const double c :
         runner::GridSpec{25.0, 500.0, ctx.pick(20, 5), false}.values()) {
      bench::print_row({c, s1.performance_gap(c), s2.performance_gap(c),
                        s5.performance_gap(c), s10.performance_gap(c)});
      evaluations += 4;
    }
    bench::print_note(
        "paper: delta ~ .21 near C~kbar with sampling vs <.01 basic");
  }
  {
    bench::print_header(
        "Sampling, exponential + adaptive: bandwidth gap Delta(C), S=10");
    const core::SamplingModel s10(exponential, adaptive, 10);
    const core::SamplingModel s1(exponential, adaptive, 1);
    bench::print_columns({"C", "Delta_S1", "Delta_S10"});
    for (const double c :
         runner::GridSpec{50.0, 600.0, ctx.pick(12, 3), false}.values()) {
      bench::print_row({c, s1.bandwidth_gap(c), s10.bandwidth_gap(c)});
      evaluations += 2;
    }
    bench::print_note(
        "paper: peak moves to ~2kbar near C ~ 1.5kbar; still -> 0 as C grows");
  }
  {
    bench::print_header("Sampling, Poisson + adaptive: little effect");
    const core::SamplingModel s1(poisson, adaptive, 1);
    const core::SamplingModel s10(poisson, adaptive, 10);
    bench::print_columns({"C", "delta_S1", "delta_S10"});
    for (const double c :
         runner::GridSpec{50.0, 300.0, ctx.pick(6, 3), false}.values()) {
      bench::print_row({c, s1.performance_gap(c), s10.performance_gap(c)});
      evaluations += 2;
    }
  }
  {
    bench::print_header(
        "Sampling, algebraic z=3 + rigid: capacity ratio (C+Delta)/C");
    const core::SamplingModel s1(algebraic, rigid, 1);
    const core::SamplingModel s2(algebraic, rigid, 2);
    bench::print_columns({"C", "ratio_S1", "ratio_S2", "asym_S1", "asym_S2"});
    const double asym1 = core::asymptotics::capacity_ratio_rigid_sampling(3.0, 1);
    const double asym2 = core::asymptotics::capacity_ratio_rigid_sampling(3.0, 2);
    for (const double c :
         runner::GridSpec{200.0, 3200.0, ctx.pick(5, 2), true}.values()) {
      bench::print_row({c, (c + s1.bandwidth_gap(c)) / c,
                        (c + s2.bandwidth_gap(c)) / c, asym1, asym2});
      evaluations += 2;
    }
    bench::print_note("continuum asymptote (S(z-1))^{1/(z-2)}: 2 and 4");
  }
  {
    bench::print_header(
        "Sampling asymptotic ratios vs z (divergence as z -> 2+)");
    bench::print_columns({"z", "S=1", "S=2", "S=5", "adaptive(a=.5,S=2)"});
    for (const double z : {2.05, 2.1, 2.25, 2.5, 3.0, 4.0}) {
      bench::print_row(
          {z, core::asymptotics::capacity_ratio_rigid_sampling(z, 1),
           core::asymptotics::capacity_ratio_rigid_sampling(z, 2),
           core::asymptotics::capacity_ratio_rigid_sampling(z, 5),
           core::asymptotics::capacity_ratio_adaptive_sampling(z, 0.5, 2)});
      evaluations += 4;
    }
    bench::print_note("S=1 stays below e = 2.71828; S>1 diverges (Sec 5.1)");
  }
  ctx.set_items(evaluations);
}
