// LoadTable contract: every tabulated value is the exact double the
// load's virtuals produce (tail slots on first read, from any thread),
// window bounds coincide with the model's direct-summation clamps, and
// the stored prefix states replay a scalar Kahan accumulation
// bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bevr/core/variable_load.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/poisson.h"
#include "bevr/kernels/load_table.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/numerics/kahan.h"
#include "bevr/utility/utility.h"

namespace bevr::kernels {
namespace {

std::shared_ptr<const dist::DiscreteLoad> poisson100() {
  return std::make_shared<dist::PoissonLoad>(100.0);
}

std::shared_ptr<const dist::DiscreteLoad> exponential100() {
  return std::make_shared<dist::ExponentialLoad>(
      dist::ExponentialLoad::with_mean(100.0));
}

std::shared_ptr<const dist::DiscreteLoad> algebraic100() {
  return std::make_shared<dist::AlgebraicLoad>(
      dist::AlgebraicLoad::with_mean(3.0, 100.0));
}

TEST(LoadTable, WindowMatchesModelClamps) {
  const auto load = poisson100();
  const LoadTable table(load, {});
  EXPECT_EQ(table.k_lo(), std::max<std::int64_t>(1, load->min_support()));
  EXPECT_EQ(table.k_exact(), load->truncation_point(1e-13));
  EXPECT_EQ(table.k_hi(),
            std::min(std::max(table.k_exact(), table.k_lo()),
                     table.k_lo() + 65'536 - 1));
  EXPECT_EQ(table.size(),
            static_cast<std::size_t>(table.k_hi() - table.k_lo() + 1));
}

TEST(LoadTable, DirectBudgetCapsTheWindow) {
  LoadTable::Options options;
  options.tail_eps = 1e-10;
  options.direct_budget = 2048;
  const LoadTable table(algebraic100(), options);
  // Algebraic z = 3 at eps = 1e-10 truncates far beyond 2048 terms.
  EXPECT_GT(table.k_exact(), table.k_hi());
  EXPECT_EQ(table.k_hi(), table.k_lo() + 2048 - 1);
}

TEST(LoadTable, EntriesAreBitwiseCopiesOfTheVirtuals) {
  for (const auto& load : {poisson100(), exponential100(), algebraic100()}) {
    LoadTable::Options options;
    options.tail_eps = 1e-8;
    options.direct_budget = 4096;
    const LoadTable table(load, options);
    for (std::size_t i = 0; i < table.size(); ++i) {
      const std::int64_t k = table.k_lo() + static_cast<std::int64_t>(i);
      const double kd = static_cast<double>(k);
      const double pmf = load->pmf(k);
      EXPECT_EQ(table.kd()[i], kd);
      EXPECT_EQ(table.pmf()[i], pmf);
      EXPECT_EQ(table.kpmf()[i], pmf * kd);
    }
  }
}

TEST(LoadTable, TailLookupsMatchVirtualsInsideAndPastTheCap) {
  LoadTable::Options options;
  options.tail_eps = 1e-8;
  options.direct_budget = 4096;
  options.tail_table_terms = 16;  // force the fallback path early
  for (const auto& load : {poisson100(), algebraic100()}) {
    const LoadTable table(load, options);
    for (const std::int64_t k :
         {table.k_lo(), table.k_lo() + 7, table.k_lo() + 15,
          table.k_lo() + 16, table.k_lo() + 200}) {
      EXPECT_EQ(table.tail_above(k), load->tail_above(k)) << "k=" << k;
      EXPECT_EQ(table.partial_mean_above(k), load->partial_mean_above(k))
          << "k=" << k;
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Tail slots fill on first read. The first read and every later one
// return the virtual's exact bits, inside the slot range and past it.
TEST(LoadTable, LazyTailSlotsHoldTheVirtualsBits) {
  LoadTable::Options options;
  options.tail_eps = 1e-8;
  options.direct_budget = 4096;
  options.tail_table_terms = 64;
  for (const auto& load : {poisson100(), algebraic100()}) {
    const LoadTable table(load, options);
    for (int read = 0; read < 2; ++read) {
      for (std::int64_t k = table.k_lo(); k < table.k_lo() + 96; ++k) {
        ASSERT_EQ(bits(table.tail_above(k)), bits(load->tail_above(k)))
            << load->name() << " k=" << k << " read " << read;
        ASSERT_EQ(bits(table.partial_mean_above(k)),
                  bits(load->partial_mean_above(k)))
            << load->name() << " k=" << k << " read " << read;
      }
    }
  }
}

// Eight threads race on unfilled slots, each walking them in its own
// order; every read is the virtual's double.
TEST(LoadTable, ConcurrentFirstReadsAgree) {
  constexpr std::size_t kThreads = 8;
  const auto load = algebraic100();
  LoadTable::Options options;
  options.tail_eps = 1e-8;
  options.direct_budget = 4096;
  options.tail_table_terms = 256;
  const LoadTable table(load, options);
  std::vector<std::uint64_t> tail(256), partial(256);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const std::int64_t k = table.k_lo() + static_cast<std::int64_t>(i);
    tail[i] = bits(load->tail_above(k));
    partial[i] = bits(load->partial_mean_above(k));
  }
  std::latch start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t step = 0; step < tail.size(); ++step) {
        // Odd threads walk downwards, so reads meet mid-table.
        const std::size_t i = (t % 2 == 0) ? step : tail.size() - 1 - step;
        const std::int64_t k = table.k_lo() + static_cast<std::int64_t>(i);
        if (bits(table.tail_above(k)) != tail[i]) ++mismatches[t];
        if (bits(table.partial_mean_above(k)) != partial[i]) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// Forwards to a load and counts its tail virtuals.
class TailCallCounter final : public dist::DiscreteLoad {
 public:
  explicit TailCallCounter(std::shared_ptr<const dist::DiscreteLoad> inner)
      : inner_(std::move(inner)) {}
  double pmf(std::int64_t k) const override { return inner_->pmf(k); }
  double tail_above(std::int64_t k) const override {
    ++tail_calls;
    return inner_->tail_above(k);
  }
  double cdf(std::int64_t k) const override { return inner_->cdf(k); }
  double mean() const override { return inner_->mean(); }
  double second_moment() const override { return inner_->second_moment(); }
  double partial_mean_above(std::int64_t k) const override {
    ++partial_mean_calls;
    return inner_->partial_mean_above(k);
  }
  double pmf_continuous(double k) const override {
    return inner_->pmf_continuous(k);
  }
  std::int64_t min_support() const override { return inner_->min_support(); }
  std::int64_t truncation_point(double eps) const override {
    return inner_->truncation_point(eps);
  }
  std::string name() const override { return inner_->name(); }

  mutable int tail_calls = 0;
  mutable int partial_mean_calls = 0;

 private:
  std::shared_ptr<const dist::DiscreteLoad> inner_;
};

// Building an algebraic evaluator calls no tail virtual beyond the
// seven tail_above probes of its batch key; a grid point then fills
// just the slots it reads, once.
TEST(LoadTable, BuildingAnEvaluatorComputesNoTails) {
  auto load = std::make_shared<TailCallCounter>(algebraic100());
  auto model = std::make_shared<core::VariableLoadModel>(
      load, std::make_shared<utility::AdaptiveExp>(),
      core::VariableLoadModel::Options{.tail_eps = 1e-10,
                                       .direct_budget = 16'384});
  const SweepEvaluator kernel(model);
  EXPECT_EQ(load->tail_calls, 7);
  EXPECT_EQ(load->partial_mean_calls, 0);

  (void)kernel.evaluate_grid(std::vector<double>{200.0}, false);
  const int tail_calls = load->tail_calls;
  const int partial_mean_calls = load->partial_mean_calls;
  EXPECT_GT(partial_mean_calls, 0);
  (void)kernel.evaluate_grid(std::vector<double>{200.0}, false);
  EXPECT_EQ(load->tail_calls, tail_calls);
  EXPECT_EQ(load->partial_mean_calls, partial_mean_calls);
}

TEST(LoadTable, PrefixStatesReplayAScalarKahanLoop) {
  const auto load = poisson100();
  const LoadTable table(load, {});
  numerics::KahanSum scalar;
  for (std::int64_t k = table.k_lo(); k <= table.k_hi(); ++k) {
    scalar.add(load->pmf(k) * static_cast<double>(k));
    const numerics::KahanSum stored = table.prefix_mass_state(k);
    ASSERT_EQ(stored.raw_sum(), scalar.raw_sum()) << "k=" << k;
    ASSERT_EQ(stored.compensation(), scalar.compensation()) << "k=" << k;
  }
  // Below the window: the identity state, value exactly zero.
  EXPECT_EQ(table.prefix_mass_state(table.k_lo() - 1).value(), 0.0);
  EXPECT_THROW((void)table.prefix_mass_state(table.k_hi() + 1),
               std::out_of_range);
}

TEST(LoadTable, ResumedStateContinuesBitIdentically) {
  // Stop a scalar accumulation mid-series, resume from the stored
  // state, and land on the same bits as the uninterrupted loop.
  const auto load = exponential100();
  const LoadTable table(load, {});
  const std::int64_t k_cut = table.k_lo() + 37;
  numerics::KahanSum resumed = table.prefix_mass_state(k_cut);
  numerics::KahanSum straight;
  for (std::int64_t k = table.k_lo(); k <= table.k_hi(); ++k) {
    straight.add(load->pmf(k) * static_cast<double>(k));
    if (k > k_cut) resumed.add(load->pmf(k) * static_cast<double>(k));
  }
  EXPECT_EQ(resumed.value(), straight.value());
  EXPECT_EQ(resumed.raw_sum(), straight.raw_sum());
  EXPECT_EQ(resumed.compensation(), straight.compensation());
}

TEST(LoadTable, RejectsBadOptions) {
  EXPECT_THROW(LoadTable(nullptr, {}), std::invalid_argument);
  LoadTable::Options bad_eps;
  bad_eps.tail_eps = 0.0;
  EXPECT_THROW(LoadTable(poisson100(), bad_eps), std::invalid_argument);
  LoadTable::Options bad_budget;
  bad_budget.direct_budget = 512;
  EXPECT_THROW(LoadTable(poisson100(), bad_budget), std::invalid_argument);
}

}  // namespace
}  // namespace bevr::kernels
