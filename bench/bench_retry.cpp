// Retry extension (§5.2): blocked reservations retry with a per-retry
// utility penalty α = 0.1. Regenerates:
//  * the retry fixed point (inflated load, retries, blocking) across C;
//  * the gap amplification for the algebraic case at large C
//    (paper reads δ(4k̄): .027 with retries vs .0025 without);
//  * the non-monotone γ(p) (advantage of reservations grows as
//    bandwidth gets cheaper, then saturates);
//  * the asymptotic ratios ((z−1)/α)^{1/(z−2)} and their divergence.
#include <memory>

#include "bevr/bench/bench_util.h"
#include "bevr/bench/registry.h"
#include "bevr/core/asymptotics.h"
#include "bevr/core/retry.h"
#include "bevr/core/welfare.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/runner/scenario.h"
#include "bevr/utility/utility.h"

BEVR_BENCHMARK(retry, "Sec 5.2 retry extension panels") {
  using namespace bevr;
  const double alpha = 0.1;
  const auto adaptive = std::make_shared<utility::AdaptiveExp>();
  const auto rigid = std::make_shared<utility::Rigid>(1.0);
  const auto algebraic_family =
      [](double mean) -> std::shared_ptr<const dist::DiscreteLoad> {
    return std::make_shared<dist::AlgebraicLoad>(
        dist::AlgebraicLoad::with_mean(3.0, mean));
  };
  const auto exponential_family =
      [](double mean) -> std::shared_ptr<const dist::DiscreteLoad> {
    return std::make_shared<dist::ExponentialLoad>(
        dist::ExponentialLoad::with_mean(mean));
  };
  std::uint64_t evaluations = 0;

  {
    bench::print_header(
        "Retry fixed point, exponential + rigid (alpha=0.1, kbar=100)");
    const core::RetryModel model(exponential_family, 100.0, rigid, alpha);
    bench::print_columns(
        {"C", "inflated_L", "retries_D", "blocking", "R_tilde", "B"});
    for (const double c :
         runner::GridSpec{120.0, 600.0, ctx.pick(9, 3), false}.values()) {
      const auto s = model.solve(c);
      bench::print_row({c, s.inflated_mean, s.retries, s.blocking, s.utility,
                        model.best_effort(c)});
      evaluations += 2;
    }
    bench::print_note("large C: R_tilde ~ 1 - alpha*theta (Sec 5.2)");
  }
  {
    bench::print_header(
        "Retry gap amplification, algebraic z=3 + adaptive (alpha=0.1)");
    const core::RetryModel with_retries(algebraic_family, 100.0, adaptive,
                                        alpha);
    const core::VariableLoadModel without(algebraic_family(100.0), adaptive);
    bench::print_columns({"C", "delta_retry", "delta_basic", "ratio"});
    for (const double c :
         runner::GridSpec{150.0, 800.0, ctx.pick(7, 3), false}.values()) {
      const double with_gap = with_retries.performance_gap(c);
      const double base_gap = without.performance_gap(c);
      bench::print_row({c, with_gap, base_gap, with_gap / base_gap});
      evaluations += 2;
    }
    bench::print_note(
        "paper reads .027 vs .0025 at C=4kbar off its plots; our fixed "
        "point gives ~.09 vs ~.007 - same ~10x amplification");
  }
  {
    bench::print_header(
        "Retry welfare gamma(p), algebraic z=3 + adaptive: non-monotone");
    const auto retry_model = std::make_shared<core::RetryModel>(
        algebraic_family, 100.0, adaptive, alpha);
    const core::WelfareAnalysis analysis(
        [retry_model](double c) { return retry_model->total_best_effort(c); },
        [retry_model](double c) { return retry_model->total_reservation(c); },
        100.0);
    bench::print_columns({"p", "gamma_retry(p)"});
    for (const double p :
         runner::GridSpec{3e-3, 0.3, ctx.pick(6, 2), true}.values()) {
      bench::print_row({p, analysis.price_ratio(p)});
      evaluations += 1;
    }
    bench::print_note(
        "paper: gamma now DECREASES for very small p yet stays bounded");
  }
  {
    bench::print_header("Retry asymptotic ratios vs z (alpha=0.1)");
    bench::print_columns({"z", "rigid", "adaptive(a=.5)", "basic_rigid"});
    for (const double z : {2.05, 2.1, 2.25, 2.5, 3.0, 4.0}) {
      bench::print_row(
          {z, core::asymptotics::capacity_ratio_rigid_retry(z, alpha),
           core::asymptotics::capacity_ratio_adaptive_retry(z, 0.5, alpha),
           core::asymptotics::capacity_ratio_rigid(z)});
      evaluations += 3;
    }
    bench::print_note(
        "((z-1)/alpha)^{1/(z-2)} diverges as z->2+ for alpha<1 (Sec 5.2)");
  }
  {
    bench::print_header(
        "Exponential + adaptive retry: Delta limit vs closed form");
    const core::RetryModel model(exponential_family, 100.0, adaptive, alpha);
    bench::print_columns({"C", "Delta_retry(C)", "closed_limit"});
    const double limit =
        core::asymptotics::exponential_adaptive_retry_gap_limit(0.00995033,
                                                                0.5, alpha);
    for (const double c :
         runner::GridSpec{200.0, 800.0, ctx.pick(4, 2), false}.values()) {
      bench::print_row({c, model.bandwidth_gap(c), limit});
      evaluations += 1;
    }
    bench::print_note(
        "closed form uses the continuum PWL(a=.5) stand-in for AdaptiveExp; "
        "order-of-magnitude guide only");
  }
  ctx.set_items(evaluations);
}
