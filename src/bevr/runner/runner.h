// The experiment engine: executes a ScenarioSpec across a thread pool
// with deterministic per-task sub-seeding and memoized evaluation.
//
// Determinism contract: the data rows delivered to the ResultSink are
// a pure function of (spec, base_seed) — identical at any thread
// count. Tasks are sharded by grid index; stochastic tasks (the sim
// model) derive their RNG as Rng(base_seed).split(task_index), so no
// task ever observes another task's draws. Rows are buffered per-index
// during the parallel section and emitted in grid order afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bevr/runner/memo_cache.h"
#include "bevr/runner/result_sink.h"
#include "bevr/runner/scenario.h"
#include "bevr/runner/thread_pool.h"

namespace bevr::runner {

struct RunOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run inline (no pool).
  unsigned threads = 1;
  /// Root seed for stochastic scenarios; task i uses split(i)-derived
  /// sub-seeds, so the same base_seed reproduces bit-identical output.
  std::uint64_t base_seed = 42;
  /// Memo for hot evaluations (k_max, totals, λ-calibration). Pass one
  /// cache across several scenarios to reuse e.g. Hurwitz-zeta
  /// λ-calibrations between runs; when null, a fresh per-run cache is
  /// created. Every model-backed plan evaluates through the memo and
  /// bevr::kernels (batched load tables + warm-started k_max).
  std::shared_ptr<MemoCache> cache;
  /// Optional external pool to amortise thread start-up across runs;
  /// when set it overrides `threads`.
  ThreadPool* pool = nullptr;
};

/// Column names the given spec's rows will carry, in order.
[[nodiscard]] std::vector<std::string> scenario_columns(const ScenarioSpec& spec);

class MemoizedVariableLoad;

/// The memoizing façade every model-backed plan evaluates through,
/// exposed so front ends (bevr::service) share the runner's exact
/// evaluation path: the algebraic λ-calibration is memoized in `cache`
/// (shared across scenarios), and cache misses are computed by a
/// SweepEvaluator (bit-identical to core::VariableLoadModel by the
/// kernels equivalence contract). Throws std::invalid_argument for a
/// null `cache`. `kernels` is a compatibility parameter left from the
/// two-path API for callers not yet updated: it must be true, and
/// false throws std::invalid_argument.
[[nodiscard]] std::shared_ptr<MemoizedVariableLoad> make_memoized_model(
    const ScenarioSpec& spec, const std::shared_ptr<MemoCache>& cache,
    bool kernels = true);

/// `git describe --always --dirty` of the working tree, or "unknown"
/// (cleanly — stderr never leaks into provenance) when git is absent
/// or the directory is not a repository.
[[nodiscard]] std::string git_describe();

/// HEAD's committer timestamp, strict ISO 8601 (e.g.
/// "2026-08-05T12:00:00+00:00"), or "unknown" under the same
/// conditions as git_describe().
[[nodiscard]] std::string git_commit_time();

/// Validate, expand and execute the scenario, streaming results into
/// `sink` (begin → rows in grid order → finish). Returns the summary
/// also handed to sink.finish(). Throws std::invalid_argument for
/// non-executable specs; exceptions from model evaluation propagate
/// after outstanding tasks drain.
RunSummary run_scenario(const ScenarioSpec& spec, const RunOptions& options,
                        ResultSink& sink);

}  // namespace bevr::runner
