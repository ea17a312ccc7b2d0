// Continuum model (§3.2/§3.3): closed-form B, R, δ, Δ for the four
// tractable cases plus the algebraic-tail-utility growth regimes, and
// the asymptotic laws the paper derives:
//   exponential+rigid:    Δ(C) ~ ln(βC)/β           (logarithmic)
//   exponential+adaptive: Δ(C) → −ln(1−a)/β          (constant)
//   algebraic+rigid:      Δ(C) = C((z−1)^{1/(z−2)}−1) (linear)
//   algebraic+adaptive:   Δ(C) = C((1+a(1−a^{z−2})/(1−a))^{1/(z−2)}−1)
#include <memory>

#include "bevr/bench/bench_util.h"
#include "bevr/bench/registry.h"
#include "bevr/core/asymptotics.h"
#include "bevr/core/continuum.h"
#include "bevr/runner/scenario.h"

BEVR_BENCHMARK(continuum, "closed-form continuum cases + asymptotic laws") {
  using namespace bevr;
  using namespace bevr::core;
  const double beta = 0.01;  // continuum mean 100 matches the discrete runs
  const double a = 0.5;
  const double z = 3.0;
  const int points = ctx.pick(11, 4);
  const int price_points = ctx.pick(9, 3);
  std::uint64_t evaluations = 0;

  {
    bench::print_header("Continuum exponential (beta=0.01): rigid vs adaptive");
    const ExponentialRigidContinuum rigid(beta);
    const ExponentialAdaptiveContinuum adaptive(beta, a);
    bench::print_columns({"C", "B_rig", "R_rig", "Delta_rig", "ln(1+bC)/b",
                          "B_ad", "Delta_ad"});
    for (const double c :
         runner::GridSpec{25.0, 25'600.0, points, true}.values()) {
      bench::print_row({c, rigid.best_effort(c), rigid.reservation(c),
                        rigid.bandwidth_gap(c),
                        asymptotics::exponential_rigid_gap(beta, c),
                        adaptive.best_effort(c), adaptive.bandwidth_gap(c)});
      evaluations += 6;
    }
    bench::print_note("adaptive Delta limit -ln(1-a)/beta = " +
                      std::to_string(adaptive.bandwidth_gap_limit()));
  }
  {
    bench::print_header("Continuum algebraic (z=3): rigid vs adaptive");
    const AlgebraicRigidContinuum rigid(z);
    const AlgebraicAdaptiveContinuum adaptive(z, a);
    bench::print_columns({"C", "B_rig", "R_rig", "Delta_rig", "Delta_rig/C",
                          "Delta_ad", "Delta_ad/C"});
    for (const double c :
         runner::GridSpec{2.0, 2048.0, points, true}.values()) {
      bench::print_row({c, rigid.best_effort(c), rigid.reservation(c),
                        rigid.bandwidth_gap(c), rigid.bandwidth_gap(c) / c,
                        adaptive.bandwidth_gap(c),
                        adaptive.bandwidth_gap(c) / c});
      evaluations += 5;
    }
    bench::print_note("rigid slope (z-1)^{1/(z-2)}-1 = 1 exactly at z=3");
    bench::print_note(
        "adaptive slope = (1+a(1-a^{z-2})/(1-a))^{1/(z-2)}-1 = 0.5 at a=0.5");
  }
  {
    bench::print_header(
        "Continuum welfare gamma(p): exponential -> 1, algebraic -> const");
    const ExponentialRigidContinuum exp_rigid(beta);
    const ExponentialAdaptiveContinuum exp_adaptive(beta, a);
    const AlgebraicRigidContinuum alg_rigid(z);
    const AlgebraicAdaptiveContinuum alg_adaptive(z, a);
    bench::print_columns({"p", "g_exp_rig", "g_exp_ad", "g_alg_rig",
                          "g_alg_ad"});
    for (const double p :
         runner::GridSpec{1e-8, 0.3, price_points, true}.values()) {
      bench::print_row({p, exp_rigid.equalizing_price_ratio(p),
                        exp_adaptive.equalizing_price_ratio(p),
                        alg_rigid.equalizing_price_ratio(p),
                        alg_adaptive.equalizing_price_ratio(p)});
      evaluations += 4;
    }
    bench::print_note("algebraic rigid gamma = (z-1)^{1/(z-2)} = 2 at z=3");
  }
  {
    bench::print_header(
        "Sec 3.3 footnote: algebraic-tail utility pi(b)=1-b^{-r}, z=4");
    bench::print_note(
        "regimes: r>z-2 -> Delta~C; z-3<r<z-2 -> sublinear; r<z-3 -> decays");
    bench::print_columns({"C", "Delta(r=3)", "Delta(r=1.5)", "Delta(r=0.5)"});
    const AlgebraicTailUtilityContinuum fast(4.0, 3.0);
    const AlgebraicTailUtilityContinuum mid(4.0, 1.5);
    const AlgebraicTailUtilityContinuum slow(4.0, 0.5);
    for (const double c :
         runner::GridSpec{10.0, 10'240.0, price_points, true}.values()) {
      bench::print_row({c, fast.bandwidth_gap(c), mid.bandwidth_gap(c),
                        slow.bandwidth_gap(c)});
      evaluations += 3;
    }
  }
  ctx.set_items(evaluations);
}
