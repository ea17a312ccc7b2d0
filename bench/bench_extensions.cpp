// §5's briefly-mentioned extensions, built out and measured:
// heterogeneous flow populations (mixture utilities), risk-averse
// utility functionals (both admission-lottery conventions), and
// nonstationary loads (regime mixtures). The paper reports these "did
// not change the basic nature of our asymptotic (large C) results
// (although some of them substantially perturbed the results in the
// C ≈ k̄ region)" — both halves are shown.
#include <memory>

#include "bevr/bench/bench_util.h"
#include "bevr/bench/registry.h"
#include "bevr/core/risk_averse.h"
#include "bevr/core/variable_load.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/mixture_load.h"
#include "bevr/dist/poisson.h"
#include "bevr/runner/scenario.h"
#include "bevr/utility/mixture.h"
#include "bevr/utility/utility.h"

BEVR_BENCHMARK(extensions, "Sec 5 heterogeneity/risk/nonstationary panels") {
  using namespace bevr;
  const auto exponential = std::make_shared<dist::ExponentialLoad>(
      dist::ExponentialLoad::with_mean(100.0));
  const auto algebraic = std::make_shared<dist::AlgebraicLoad>(
      dist::AlgebraicLoad::with_mean(3.0, 100.0));
  const auto rigid = std::make_shared<utility::Rigid>(1.0);
  const auto adaptive = std::make_shared<utility::AdaptiveExp>();
  std::uint64_t evaluations = 0;

  {
    bench::print_header(
        "Heterogeneous population (50% rigid, 50% adaptive), exponential");
    const auto mix = std::make_shared<utility::MixtureUtility>(
        std::vector<utility::MixtureComponent>{
            {rigid, 1.0, 1.0}, {adaptive, 1.0, 1.0}});
    const core::VariableLoadModel mixed(exponential, mix);
    const core::VariableLoadModel pure_rigid(exponential, rigid);
    const core::VariableLoadModel pure_adaptive(exponential, adaptive);
    bench::print_columns({"C", "delta_rigid", "delta_mixed", "delta_adapt"});
    for (const double c :
         runner::GridSpec{50.0, 400.0, ctx.pick(8, 3), false}.values()) {
      bench::print_row({c, pure_rigid.performance_gap(c),
                        mixed.performance_gap(c),
                        pure_adaptive.performance_gap(c)});
      evaluations += 3;
    }
    bench::print_note("the mixture interpolates its pure classes");
  }
  {
    bench::print_header(
        "Heterogeneous flow SIZES (scale 1 vs 3), algebraic z=3, rigid");
    const auto sized = std::make_shared<utility::MixtureUtility>(
        std::vector<utility::MixtureComponent>{
            {rigid, 3.0, 1.0}, {rigid, 1.0, 3.0}});
    const core::VariableLoadModel model(algebraic, sized);
    bench::print_columns({"C", "Delta(C)", "Delta/C"});
    for (const double c :
         runner::GridSpec{200.0, 3200.0, ctx.pick(5, 2), true}.values()) {
      const double gap = model.bandwidth_gap(c);
      bench::print_row({c, gap, gap / c});
      evaluations += 1;
    }
    bench::print_note("Delta stays LINEAR: the asymptotic law survives "
                      "heterogeneity (Sec 5)");
  }
  {
    bench::print_header(
        "Risk aversion (lambda sweep), exponential + adaptive, C = 150");
    bench::print_columns({"lambda", "B_cond", "R_cond", "gap_cond",
                          "gap_uncond"});
    for (const double lambda : {0.0, 0.25, 0.5, 1.0, 2.0}) {
      const core::RiskAverseModel conditional(
          exponential, adaptive, lambda, core::BlockingRisk::kConditional);
      const core::RiskAverseModel unconditional(
          exponential, adaptive, lambda, core::BlockingRisk::kUnconditional);
      bench::print_row({lambda, conditional.best_effort(150.0),
                        conditional.reservation(150.0),
                        conditional.performance_gap(150.0),
                        unconditional.performance_gap(150.0)});
      evaluations += 4;
    }
    bench::print_note(
        "conditional convention: reservations shield the spread, gap "
        "widens; unconditional: the admission lottery itself is risky and "
        "the gap can vanish");
  }
  {
    bench::print_header(
        "Risk aversion asymptotics, algebraic z=3 + rigid (lambda=0.5)");
    const core::RiskAverseModel conditional(
        algebraic, rigid, 0.5, core::BlockingRisk::kConditional);
    const core::RiskAverseModel unconditional(
        algebraic, rigid, 0.5, core::BlockingRisk::kUnconditional);
    bench::print_columns({"C", "ratio_cond", "ratio_uncond"});
    for (const double c :
         runner::GridSpec{400.0, 6400.0, ctx.pick(5, 2), true}.values()) {
      bench::print_row({c, (c + conditional.bandwidth_gap(c)) / c,
                        (c + unconditional.bandwidth_gap(c)) / c});
      evaluations += 2;
    }
    bench::print_note(
        "unconditional converges (paper's invariance claim); conditional "
        "diverges because rigid reservations have zero conditional spread");
  }
  {
    bench::print_header(
        "Nonstationary load: day/night Poisson(150)/Poisson(50) mixture");
    const auto mix = std::make_shared<dist::MixtureLoad>(
        std::vector<dist::LoadRegime>{
            {std::make_shared<dist::PoissonLoad>(150.0), 1.0},
            {std::make_shared<dist::PoissonLoad>(50.0), 1.0}});
    const core::VariableLoadModel mixed(mix, rigid);
    const core::VariableLoadModel stationary(
        std::make_shared<dist::PoissonLoad>(100.0), rigid);
    bench::print_columns({"C", "delta_mixture", "delta_Poisson100"});
    for (const double c :
         runner::GridSpec{60.0, 220.0, ctx.pick(9, 3), false}.values()) {
      bench::print_row({c, mixed.performance_gap(c),
                        stationary.performance_gap(c)});
      evaluations += 2;
    }
    bench::print_note(
        "regime switching keeps the gap alive until C covers the PEAK "
        "regime, not the average load");
  }
  {
    bench::print_header(
        "Nonstationary + heavy regime: 90% Poisson / 10% algebraic, rigid");
    const auto mix = std::make_shared<dist::MixtureLoad>(
        std::vector<dist::LoadRegime>{
            {std::make_shared<dist::PoissonLoad>(100.0), 9.0},
            {algebraic, 1.0}});
    const core::VariableLoadModel model(mix, rigid);
    bench::print_columns({"C", "Delta(C)", "Delta/C"});
    for (const double c :
         runner::GridSpec{400.0, 3200.0, ctx.pick(4, 2), true}.values()) {
      const double gap = model.bandwidth_gap(c);
      bench::print_row({c, gap, gap / c});
      evaluations += 1;
    }
    bench::print_note("a 10% heavy-tailed regime is enough to keep Delta "
                      "growing linearly forever");
  }
  ctx.set_items(evaluations);
}
