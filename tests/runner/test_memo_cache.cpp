// MemoCache + MemoizedVariableLoad: bitwise equality with uncached
// evaluation, hit/miss accounting (in the cache, in each run's summary
// and, once per run, in the obs registry), concurrent access,
// rejection of incomplete stacks, and one sum per series.
#include "bevr/runner/memo_cache.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "bevr/core/variable_load.h"
#include "bevr/core/welfare.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/exponential.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/obs/metrics.h"
#include "bevr/runner/memoized_model.h"
#include "bevr/runner/runner.h"
#include "bevr/runner/thread_pool.h"
#include "bevr/utility/utility.h"

namespace bevr::runner {
namespace {

TEST(MemoCache, FirstCallMissesSecondHits) {
  MemoCache cache;
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return 42.5;
  };
  EXPECT_EQ(cache.get_or_compute("op", 1.0, compute), 42.5);
  EXPECT_EQ(cache.get_or_compute("op", 1.0, compute), 42.5);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MemoCache, DistinctOpsAndArgsDoNotCollide) {
  MemoCache cache;
  EXPECT_EQ(cache.get_or_compute("a", 1.0, [] { return 1.0; }), 1.0);
  EXPECT_EQ(cache.get_or_compute("b", 1.0, [] { return 2.0; }), 2.0);
  EXPECT_EQ(cache.get_or_compute("a", 2.0, [] { return 3.0; }), 3.0);
  EXPECT_EQ(cache.get_or_compute2("a", 1.0, 5.0, [] { return 4.0; }), 4.0);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(MemoCache, ClearResetsEntriesAndCounters) {
  MemoCache cache;
  (void)cache.get_or_compute("op", 1.0, [] { return 1.0; });
  (void)cache.get_or_compute("op", 1.0, [] { return 1.0; });
  cache.clear();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  int computes = 0;
  (void)cache.get_or_compute("op", 1.0, [&] {
    ++computes;
    return 1.0;
  });
  EXPECT_EQ(computes, 1);
}

TEST(MemoCache, ConcurrentAccessIsConsistent) {
  MemoCache cache;
  ThreadPool pool(4);
  parallel_for(&pool, 512, [&](std::int64_t i) {
    const double key = static_cast<double>(i % 16);
    const double value =
        cache.get_or_compute("square", key, [&] { return key * key; });
    ASSERT_EQ(value, key * key);
  });
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 512u);
  // 16 distinct keys; duplicated concurrent misses are possible but
  // bounded by the number of racing tasks.
  EXPECT_GE(stats.hits, 1u);
}

// The welfare maximiser's path per scenario: a smooth (adaptive) V
// never falls back to the full scan, a step (rigid) V always does.
TEST(WelfarePath, AdaptiveScansCoarseToFineRigidFallsBack) {
  const auto count = [](const char* name) {
    return obs::MetricsRegistry::global().snapshot().counter(name);
  };
  for (const char* name : {"fig3_welfare_adaptive", "fig3_welfare_rigid"}) {
    SCOPED_TRACE(name);
    const std::uint64_t max0 = count("core/welfare/maximisations");
    const std::uint64_t flat0 = count("core/welfare/flat_fallbacks");
    VectorSink sink;
    run_scenario(*ScenarioRegistry::builtin().find(name), RunOptions{}, sink);
    const std::uint64_t maximisations = count("core/welfare/maximisations") - max0;
    const std::uint64_t flat = count("core/welfare/flat_fallbacks") - flat0;
    EXPECT_GT(maximisations, 0u);
    if (std::string(name) == "fig3_welfare_adaptive") {
      EXPECT_EQ(flat, 0u);
    } else {
      EXPECT_EQ(flat, maximisations);
    }
  }
}

CacheStats registry_counts() {
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  return CacheStats{snapshot.counter("runner/cache/hits"),
                    snapshot.counter("runner/cache/misses")};
}

// run_scenario publishes each run's lookups to runner/cache/{hits,
// misses} once, as the cache's stats() difference over the run — so a
// shared cache's earlier counts are never re-published, and the
// registry moves by exactly what the cache counted.
TEST(MemoCache, RunsPublishTheirOwnLookupsToTheRegistryOnce) {
  ScenarioSpec spec = *ScenarioRegistry::builtin().find("fig4_welfare_rigid");
  spec.grid.points = 3;
  RunOptions options;
  options.cache = std::make_shared<MemoCache>();
  for (const char* pass : {"cold", "warm"}) {
    SCOPED_TRACE(pass);
    const CacheStats cache_before = options.cache->stats();
    const CacheStats registry_before = registry_counts();
    VectorSink sink;
    run_scenario(spec, options, sink);
    const CacheStats cache_after = options.cache->stats();
    const CacheStats registry_after = registry_counts();
    EXPECT_GT(cache_after.hits + cache_after.misses,
              cache_before.hits + cache_before.misses);
    EXPECT_EQ(registry_after.hits - registry_before.hits,
              cache_after.hits - cache_before.hits);
    EXPECT_EQ(registry_after.misses - registry_before.misses,
              cache_after.misses - cache_before.misses);
  }
}

// RunSummary::cache is the run's own lookups too: on a cache that an
// earlier scenario already used, the second summary equals that run's
// registry delta, not the cache's running total.
TEST(MemoCache, RunSummaryCarriesOnlyItsOwnLookups) {
  RunOptions options;
  options.cache = std::make_shared<MemoCache>();
  for (const char* name : {"fig2_adaptive", "fig2_welfare_rigid"}) {
    SCOPED_TRACE(name);
    ScenarioSpec spec = *ScenarioRegistry::builtin().find(name);
    spec.grid.points = 3;
    const CacheStats registry_before = registry_counts();
    VectorSink sink;
    const RunSummary summary = run_scenario(spec, options, sink);
    const CacheStats registry_after = registry_counts();
    EXPECT_GT(summary.cache.hits + summary.cache.misses, 0u);
    EXPECT_EQ(summary.cache.hits, registry_after.hits - registry_before.hits);
    EXPECT_EQ(summary.cache.misses,
              registry_after.misses - registry_before.misses);
    EXPECT_EQ(sink.summary().cache.hits, summary.cache.hits);
    EXPECT_EQ(sink.summary().cache.misses, summary.cache.misses);
  }
}

class MemoizedModelTest : public ::testing::Test {
 protected:
  std::shared_ptr<const core::VariableLoadModel> model_ =
      std::make_shared<core::VariableLoadModel>(
          std::make_shared<dist::ExponentialLoad>(
              dist::ExponentialLoad::with_mean(100.0)),
          std::make_shared<utility::Rigid>(1.0));

  static MemoizedVariableLoad memoize(
      std::shared_ptr<const core::VariableLoadModel> model,
      std::shared_ptr<MemoCache> cache) {
    auto kernel = std::make_shared<kernels::SweepEvaluator>(model);
    return MemoizedVariableLoad(std::move(model), std::move(cache),
                                std::move(kernel));
  }
};

TEST_F(MemoizedModelTest, CachedValuesAreBitwiseEqualToUncached) {
  auto cache = std::make_shared<MemoCache>();
  const MemoizedVariableLoad memoized = memoize(model_, cache);
  for (const double c : {12.5, 80.0, 100.0, 250.0, 640.0}) {
    // First call populates the cache, second replays from it; both
    // must be bitwise-identical to the raw model.
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(memoized.best_effort(c), model_->best_effort(c));
      EXPECT_EQ(memoized.reservation(c), model_->reservation(c));
      EXPECT_EQ(memoized.total_best_effort(c), model_->total_best_effort(c));
      EXPECT_EQ(memoized.total_reservation(c), model_->total_reservation(c));
      EXPECT_EQ(memoized.performance_gap(c), model_->performance_gap(c));
      EXPECT_EQ(memoized.bandwidth_gap(c), model_->bandwidth_gap(c));
      EXPECT_EQ(memoized.blocking_fraction(c), model_->blocking_fraction(c));
      EXPECT_EQ(memoized.k_max(c), model_->k_max(c));
    }
  }
  EXPECT_GT(cache->stats().hits, 0u);
}

// There is one evaluation stack: a façade without its cache or kernel,
// or over a kernel of another model, is refused rather than degraded.
TEST_F(MemoizedModelTest, RejectsAnIncompleteOrMismatchedStack) {
  const auto cache = std::make_shared<MemoCache>();
  const auto kernel = std::make_shared<kernels::SweepEvaluator>(model_);
  EXPECT_THROW((void)MemoizedVariableLoad(model_, nullptr, kernel),
               std::invalid_argument);
  EXPECT_THROW((void)MemoizedVariableLoad(model_, cache, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)MemoizedVariableLoad(nullptr, cache, kernel),
               std::invalid_argument);
  // Same load and utility, but a distinct model object.
  const auto twin = std::make_shared<core::VariableLoadModel>(
      model_->load_ptr(), model_->util_ptr());
  EXPECT_THROW((void)MemoizedVariableLoad(twin, cache, kernel),
               std::invalid_argument);

  const ScenarioSpec& spec = *ScenarioRegistry::builtin().find("fig2_rigid");
  EXPECT_THROW((void)make_memoized_model(spec, cache, false),
               std::invalid_argument);
  EXPECT_THROW((void)make_memoized_model(spec, nullptr),
               std::invalid_argument);
  EXPECT_NO_THROW((void)make_memoized_model(spec, cache));
}

TEST_F(MemoizedModelTest, TwoModelsSharingACacheDoNotAlias) {
  // Same load but a different bandwidth requirement: values differ at
  // equal capacities, and the shared cache must keep them apart.
  auto other_model = std::make_shared<core::VariableLoadModel>(
      std::make_shared<dist::ExponentialLoad>(
          dist::ExponentialLoad::with_mean(100.0)),
      std::make_shared<utility::Rigid>(2.0));

  auto cache = std::make_shared<MemoCache>();
  const MemoizedVariableLoad a = memoize(model_, cache);
  const MemoizedVariableLoad b = memoize(other_model, cache);
  const double c = 150.0;
  ASSERT_NE(model_->best_effort(c), other_model->best_effort(c));
  EXPECT_EQ(a.best_effort(c), model_->best_effort(c));
  EXPECT_EQ(b.best_effort(c), other_model->best_effort(c));
  // Replays hit the right entries too.
  EXPECT_EQ(a.best_effort(c), model_->best_effort(c));
  EXPECT_EQ(b.best_effort(c), other_model->best_effort(c));
}

TEST(MemoizedElastic, KmaxNulloptRoundTripsThroughCache) {
  auto model = std::make_shared<core::VariableLoadModel>(
      std::make_shared<dist::ExponentialLoad>(
          dist::ExponentialLoad::with_mean(100.0)),
      std::make_shared<utility::Elastic>());
  auto cache = std::make_shared<MemoCache>();
  const MemoizedVariableLoad memoized(
      model, cache, std::make_shared<kernels::SweepEvaluator>(model));
  EXPECT_EQ(memoized.k_max(100.0), std::nullopt);
  EXPECT_EQ(memoized.k_max(100.0), std::nullopt);  // replay from cache
  EXPECT_GT(cache->stats().hits, 0u);
}

// AdaptiveExp that logs every batched series sum as (first share,
// window length). The first share is C/k_lo, so a pair logged twice is
// one capacity's series summed twice.
class SumLog final : public utility::UtilityFunction {
 public:
  [[nodiscard]] double value(double b) const override {
    return inner_.value(b);
  }
  void value_batch(std::span<const double> b,
                   std::span<double> out) const override {
    if (!b.empty()) {
      const std::scoped_lock lock(mutex_);
      ++sums_[{b.front(), b.size()}];
    }
    inner_.value_batch(b, out);
  }
  [[nodiscard]] bool inelastic() const override { return inner_.inelastic(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  /// Series summed more than once so far.
  [[nodiscard]] int repeats() const {
    const std::scoped_lock lock(mutex_);
    int repeated = 0;
    for (const auto& [sum, count] : sums_) repeated += count - 1;
    return repeated;
  }

 private:
  utility::AdaptiveExp inner_;
  mutable std::mutex mutex_;
  mutable std::map<std::pair<double, std::size_t>, int> sums_;
};

// One Δ row and one welfare price, evaluated as the runner's plans do,
// sum no capacity's series twice: Δ reuses the row's B(C) and R(C) and
// the bracket ends it already summed, and nested welfare grids share
// their common points through the point memo.
TEST(MemoizedAlgebraic, DeltaRowAndWelfarePriceSumEachSeriesOnce) {
  auto log = std::make_shared<SumLog>();
  auto model = std::make_shared<core::VariableLoadModel>(
      std::make_shared<dist::AlgebraicLoad>(
          dist::AlgebraicLoad::with_mean(3.0, 100.0)),
      log,
      core::VariableLoadModel::Options{.tail_eps = 1e-10,
                                       .direct_budget = 2048});
  const auto memo = std::make_shared<MemoizedVariableLoad>(
      model, std::make_shared<MemoCache>(),
      std::make_shared<kernels::SweepEvaluator>(model));

  const double c = 120.0;
  (void)memo->k_max(c);
  (void)memo->best_effort(c);
  (void)memo->reservation(c);
  (void)memo->performance_gap(c);
  EXPECT_GT(memo->bandwidth_gap(c), 0.0);
  (void)memo->blocking_fraction(c);
  EXPECT_EQ(log->repeats(), 0) << "in the delta row";

  const core::WelfareAnalysis analysis(
      [memo](double x) { return memo->total_best_effort(x); },
      [memo](double x) { return memo->total_reservation(x); },
      [memo](double lo, double hi, int n, std::span<double> out) {
        memo->total_best_effort_grid(lo, hi, n, out);
      },
      [memo](double lo, double hi, int n, std::span<double> out) {
        memo->total_reservation_grid(lo, hi, n, out);
      },
      memo->mean_load());
  const double p = 0.03;
  (void)analysis.best_effort(p);
  (void)analysis.reservation(p);
  EXPECT_GT(analysis.price_ratio(p), 1.0);
  EXPECT_EQ(log->repeats(), 0) << "in the welfare price";
}

}  // namespace
}  // namespace bevr::runner
