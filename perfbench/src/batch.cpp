// The two batch workloads. Each pass runs every scenario of the
// workload through runner::run_scenario into a CsvSink, the way
// `bevr_run <filter>` does (one fresh MemoCache shared across the
// pass), and is timed as a whole: batch work is a pass, not a stream
// of requests.
//
//  figures — the 12 fig* scenarios plus fixed_load_* and continuum_*,
//    at 1 thread (bevr_run's default). This is what regenerating the
//    paper costs: kernels, core, numerics and the memo cache work while
//    service, admission, net2 and sim stay idle. No random input.
//  flows — admission_*, net2_* and sim_mm_inf_validation on a runner
//    pool of nproc threads, base_seed = the workload seed. The event
//    engines, calendar, ledger and trace generators do nearly all the
//    work and the kernels almost none; with 4-7 point grids on 4
//    threads the slowest task sets the pass time, so pool scheduling
//    shows.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "bevr/obs/metrics.h"
#include "bevr/obs/trace.h"
#include "bevr/runner/result_sink.h"
#include "bevr/runner/runner.h"
#include "common.h"
#include "layers.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace bevr;

/// The seed tests/golden/ was recorded at (RunOptions' default).
constexpr std::uint64_t kGoldenSeed = 42;

struct Pass {
  double wall_s = 0.0;
  std::vector<std::string> csv;  ///< per scenario, comments stripped
  double expand_s = 0.0, execute_s = 0.0, emit_s = 0.0, task_s = 0.0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};

struct Batch {
  std::vector<const runner::ScenarioSpec*> specs;
  std::uint64_t seed = 0;
  runner::ThreadPool* pool = nullptr;  ///< null: run inline at 1 thread
  bool seeded = false;                 ///< rows depend on the seed

  [[nodiscard]] Pass run() const {
    Pass pass;
    runner::RunOptions options;
    options.base_seed = seed;
    options.pool = pool;
    options.cache = std::make_shared<runner::MemoCache>();
    std::vector<std::string> raw;
    raw.reserve(specs.size());
    const std::int64_t start = mono_ns();
    for (const runner::ScenarioSpec* spec : specs) {
      std::ostringstream csv;
      runner::CsvSink sink(csv);
      const runner::RunSummary s = runner::run_scenario(*spec, options, sink);
      raw.push_back(csv.str());
      pass.expand_s += s.expand_seconds;
      pass.execute_s += s.execute_seconds;
      pass.emit_s += s.emit_seconds;
      pass.task_s += s.task_seconds_total;
    }
    pass.wall_s = seconds_since(start);
    const runner::CacheStats stats = options.cache->stats();
    pass.cache_hits = stats.hits;
    pass.cache_misses = stats.misses;
    for (const std::string& text : raw) pass.csv.push_back(strip_comments(text));
    return pass;
  }

  /// Check one pass's rows: against the goldens when they apply, else
  /// for sanity; and, after the first pass, for equality with it.
  void check(const Pass& pass, const Pass* reference, const Options& options,
             Outcome& out) const {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string& name = specs[i]->name;
      if (reference != nullptr) {
        out.check(pass.csv[i] == reference->csv[i], name + ": rows differ between passes");
      } else if (!seeded || seed == kGoldenSeed) {
        const auto mismatch = golden_mismatch(
            pass.csv[i], read_file(options.golden_dir + "/" + name + ".csv"));
        out.check(!mismatch, name + " differs from its golden: " + mismatch.value_or(""));
      } else {
        const std::string problem = sanity_problem(*specs[i], pass.csv[i]);
        out.check(problem.empty(), name + ": " + problem);
      }
    }
  }
};

std::vector<double> field(const std::vector<Pass>& passes, double Pass::*member) {
  std::vector<double> values;
  for (const Pass& p : passes) values.push_back(p.*member);
  return values;
}

/// Runner-layer metrics of one path ("figures", "flows") from a set of
/// its passes (medians across them).
void runner_metrics(const std::vector<Pass>& passes, unsigned threads, const std::string& path,
                    Outcome& out) {
  const std::string prefix = "runner." + path + ".";
  const double execute = median(field(passes, &Pass::execute_s));
  out.metric(prefix + "expand_s", median(field(passes, &Pass::expand_s)), "s");
  out.metric(prefix + "execute_s", execute, "s");
  out.metric(prefix + "emit_s", median(field(passes, &Pass::emit_s)), "s");
  out.metric(prefix + "pool_idle_share",
             1.0 - median(field(passes, &Pass::task_s)) / (execute * threads), "fraction");
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  for (const Pass& p : passes) {
    hits += p.cache_hits;
    lookups += p.cache_hits + p.cache_misses;
  }
  out.metric(prefix + "cache_hit_ratio",
             lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
             "fraction");
  out.metric(prefix + "cache_lookups",
             static_cast<double>(lookups) / static_cast<double>(passes.size()), "count");
}

/// Untraced: a first pass to fill caches and finish lazy set-up
/// (checked, not timed), then passes for the rest of the budget. A
/// batch user's operation is the whole pass (every figure regenerated,
/// every study run), so work_ms is the passes' median wall time.
/// (Over five sets of ten runs on a shared 4-vCPU host the lower
/// quartile was no steadier: it spread by 0.09-0.29 of its value on
/// figures against 0.08-0.25 for the median, and by 0.10-0.22 against
/// 0.09-0.17 on flows.)
void measure(const Batch& batch, const Options& options, Outcome& out) {
  const std::int64_t start = mono_ns();
  const Pass first = batch.run();
  batch.check(first, nullptr, options, out);
  std::vector<double> walls;
  do {
    const Pass pass = batch.run();
    walls.push_back(pass.wall_s);
    batch.check(pass, &first, options, out);
  } while (seconds_since(start) + median(walls) < options.seconds);
  out.metric("work_ms", median(walls) * 1e3, "ms");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("passes %zu  pass s: min %.4f q1 %.4f median %.4f max %.4f\n", walls.size(),
              *std::min_element(walls.begin(), walls.end()), lower_quartile(walls),
              median(walls), *std::max_element(walls.begin(), walls.end()));
}

/// Traced: untraced and traced passes alternate for `seconds` (at least
/// one pair; obs.<path>.trace_overhead is the median of their paired
/// ratios), then one traced replay below run_scenario whose rows must
/// equal the passes' and whose layer spans must cover >= 90% of its
/// wall time.
template <class LayerPass>
void measure_traced(const Batch& batch, unsigned threads, const std::string& path,
                    double seconds, const Options& options,
                    const std::vector<std::string>& layer_prefixes, LayerPass&& layer_pass,
                    Outcome& out) {
  obs::TraceCollector& collector = obs::TraceCollector::global();
  std::vector<Pass> untraced;
  std::vector<double> ratios;  // one per traced pass
  const Pass first = batch.run();
  batch.check(first, nullptr, options, out);
  const std::int64_t start = mono_ns();
  do {
    Pass plain = batch.run();
    collector.set_enabled(true);
    const Pass traced = batch.run();
    collector.set_enabled(false);
    batch.check(plain, &first, options, out);
    batch.check(traced, &first, options, out);
    ratios.push_back(traced.wall_s / plain.wall_s);
    untraced.push_back(std::move(plain));
  } while (seconds_since(start) < seconds);
  runner_metrics(untraced, threads, path, out);
  out.metric("obs." + path + ".trace_overhead", median(ratios) - 1.0, "fraction");

  std::vector<std::string> rows;
  const double coverage = traced_replay(layer_prefixes, [&] { rows = layer_pass(out); });
  for (std::size_t i = 0; i < batch.specs.size(); ++i) {
    out.check(rows[i] == first.csv[i],
              batch.specs[i]->name + ": layer entry points disagree with run_scenario");
  }
  out.require(coverage >= 0.9, "layer spans cover under 90% of the replay");
  report_trace(options.trace_out, path, static_cast<double>(ratios.size()), out);
}

Batch figures_batch(const Options& options) {
  Batch batch;
  batch.specs = scenarios_with_prefix({"fig", "fixed_load_", "continuum_"});
  batch.seed = options.seed;
  return batch;
}

Batch flows_batch(const Options& options, runner::ThreadPool& pool) {
  Batch batch;
  batch.specs = scenarios_with_prefix({"admission_", "net2_", "sim_"});
  batch.seed = options.seed;
  batch.seeded = true;
  batch.pool = &pool;
  return batch;
}

}  // namespace

void run_figures(const Options& options, Outcome& out) {
  const Batch batch = figures_batch(options);
  (void)runner::git_describe();  // provenance, as every run_scenario records it
  setup_done(options, out);
  if (options.setup_only) return;
  measure(batch, options, out);
}

void run_flows(const Options& options, Outcome& out) {
  (void)runner::git_describe();
  runner::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  const Batch batch = flows_batch(options, pool);
  setup_done(options, out);
  if (options.setup_only) return;
  measure(batch, options, out);
}

void trace_figures(const Options& options, double seconds, Outcome& out) {
  const Batch batch = figures_batch(options);
  measure_traced(batch, 1, "figures", seconds, options, {"numerics/", "core/", "kernels/"},
                 [&](Outcome& o) { return figure_layer_pass(batch.specs, o); }, out);
}

void trace_flows(const Options& options, double seconds, Outcome& out) {
  runner::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  const Batch batch = flows_batch(options, pool);
  measure_traced(batch, pool.size(), "flows", seconds, options,
                 {"admission/", "net2/", "sim/", "numerics/", "kernels/"},
                 [&](Outcome& o) { return flow_layer_pass(batch.specs, options.seed, pool, o); },
                 out);
}

}  // namespace perfbench
