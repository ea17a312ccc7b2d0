// Scalar test oracle for run_scenario's model-backed plans.
//
// The runner evaluates every variable-load point through one stack
// (MemoCache → MemoizedVariableLoad → kernels::SweepEvaluator, with
// warm-started k_max). This oracle recomputes the same rows point by
// point from the specification alone: core::VariableLoadModel for the
// variable-load, welfare and simulation-model columns, and core::k_max
// / core::k_max_continuum for fixed load. No memo, no load tables, no
// warm starts, no hoisted constants — each value is what the model's
// own formula gives when evaluated the plain way.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bevr/core/fixed_load.h"
#include "bevr/core/variable_load.h"
#include "bevr/core/welfare.h"
#include "bevr/runner/scenario.h"

namespace bevr::kernels {

class ScalarOracle {
 public:
  /// One expected row; nullopt marks a column the oracle does not
  /// predict (the simulation scenario's Monte Carlo columns).
  using Row = std::vector<std::optional<double>>;

  /// Throws std::invalid_argument for models without a scalar oracle
  /// (continuum, admission, net2).
  explicit ScalarOracle(const runner::ScenarioSpec& spec)
      : spec_(spec), pi_(runner::make_utility(spec)) {
    switch (spec.model) {
      case runner::ModelKind::kFixedLoad:
        return;
      case runner::ModelKind::kVariableLoad:
      case runner::ModelKind::kWelfare:
      case runner::ModelKind::kSimulation:
        model_ = std::make_shared<core::VariableLoadModel>(
            runner::make_load(spec), pi_, spec.eval);
        return;
      default:
        throw std::invalid_argument("ScalarOracle: no oracle for model '" +
                                    to_string(spec.model) + "'");
    }
  }

  /// The row run_scenario must emit at grid value `x`.
  [[nodiscard]] Row row(double x) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto kmax_column = [](std::optional<std::int64_t> k) {
      return k ? static_cast<double>(*k) : -1.0;
    };
    switch (spec_.model) {
      case runner::ModelKind::kFixedLoad: {
        const auto k = core::k_max(*pi_, x);
        return {x, kmax_column(k), k ? core::total_utility(*pi_, x, *k) : kInf,
                pi_->inelastic() ? core::k_max_continuum(*pi_, x) : kInf};
      }
      case runner::ModelKind::kVariableLoad: {
        Row row = {x, model_->best_effort(x), model_->reservation(x),
                   model_->performance_gap(x)};
        if (spec_.with_bandwidth_gap) {
          row.emplace_back(model_->bandwidth_gap(x));
        }
        row.emplace_back(kmax_column(model_->k_max(x)));
        row.emplace_back(model_->blocking_fraction(x));
        return row;
      }
      case runner::ModelKind::kWelfare: {
        const core::WelfareAnalysis analysis(
            [this](double c) { return model_->total_best_effort(c); },
            [this](double c) { return model_->total_reservation(c); },
            model_->mean_load());
        const auto be = analysis.best_effort(x);
        const auto rs = analysis.reservation(x);
        return {x,          be.capacity, rs.capacity,
                be.welfare, rs.welfare,  analysis.price_ratio(x)};
      }
      default: {  // kSimulation: the admission limit and model columns
        const auto k = model_->k_max(x);
        // No threshold (elastic flows): the runner's "no limit" value.
        const auto no_limit =
            static_cast<std::int64_t>(spec_.load_mean * 16);
        return {x,
                static_cast<double>(k.value_or(no_limit)),
                std::nullopt,
                std::nullopt,
                model_->best_effort(x),
                model_->reservation(x),
                std::nullopt,
                model_->blocking_fraction(x)};
      }
    }
  }

 private:
  runner::ScenarioSpec spec_;
  std::shared_ptr<const utility::UtilityFunction> pi_;
  std::shared_ptr<const core::VariableLoadModel> model_;
};

}  // namespace bevr::kernels
