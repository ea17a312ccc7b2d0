// Shared plumbing for the three workloads: options, the result record
// that becomes the final JSON line, clocks, the host-speed probe, span
// accounting for the traced runs, and output checks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bevr/obs/trace.h"
#include "bevr/runner/scenario.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Set up, report setup_s and exit (perfbench/run.py repeats set-up
  /// in fresh processes and reports the median).
  bool setup_only = false;
  /// CLOCK_MONOTONIC (ns) just before this process was spawned; setup_s
  /// is measured from it. 0: from entry to main.
  std::int64_t spawn_ns = 0;
  std::string golden_dir = "tests/golden";
  std::string trace_out;  ///< Chrome trace path for traced runs
  // serve: open-loop rates and the latency limit of max_rps. Their
  // values, and why, live in BENCHMARK.json and perfbench/README.md.
  double low_rps = 0.0;
  double high_rps = 0.0;
  double p90_limit_ms = 0.0;
};

/// Everything a run reports: metrics by name, the operation counts and
/// whether every output check held.
class Outcome {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count one checked operation; `ok` false counts it failed.
  void check(bool ok, const std::string& what);
  /// A whole-run check (e.g. span coverage) that is not an operation.
  void require(bool ok, const std::string& what);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n, const std::string& what);
  /// The final JSON line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// CLOCK_MONOTONIC nanoseconds (the clock Python's time.monotonic_ns
/// reads, so a parent's spawn stamp is comparable).
[[nodiscard]] std::int64_t mono_ns();
[[nodiscard]] double seconds_since(std::int64_t start_ns);

/// Peak resident set size of this process so far (ru_maxrss), MB.
/// Workloads read it after their timed work, before any work of the
/// benchmark's own that could raise it (serve's ladder and check).
[[nodiscard]] double peak_rss_mb();

/// Fixed compute loop and ~1 MB pointer chase, printed as a
/// "host_probe" line: a spread in the metrics that these also show
/// comes from the host, not the program.
void print_host_probe(const char* when);

/// Registry scenarios whose names start with any of `prefixes`, in
/// registry order.
[[nodiscard]] std::vector<const bevr::runner::ScenarioSpec*> scenarios_with_prefix(
    const std::vector<std::string>& prefixes);

[[nodiscard]] std::string read_file(const std::string& path);

/// Rows that cannot be checked byte for byte (seed other than the
/// goldens'): every value finite, every utility/blocking/share column
/// in [0, 1], and one row per grid point. Returns "" or the problem.
[[nodiscard]] std::string sanity_problem(const bevr::runner::ScenarioSpec& spec,
                                         const std::string& csv);

/// Rows rendered exactly as CsvSink prints them, comments stripped —
/// comparable byte for byte with a run_scenario pass.
[[nodiscard]] std::string render_csv(const bevr::runner::ScenarioSpec& spec,
                                     const std::vector<std::vector<double>>& rows);

/// Value of a global-registry counter now.
[[nodiscard]] std::uint64_t counter_value(const std::string& name);

/// The collector the benchmark's own spans record into. Separate from
/// the program's global collector, whose rings the program's own
/// per-decision events can overwrite when tracing is on.
[[nodiscard]] bevr::obs::TraceCollector& bench_collector();

/// Run `replay` with the benchmark's spans recording; returns the share
/// of its wall time the spans of `layers` cover.
double traced_replay(const std::vector<std::string>& layers, const std::function<void()>& replay);

/// Close one path's traced breakdown: print per-layer self time and
/// span counts for the program's own instrumentation and for the
/// benchmark's replay, write both Chrome traces (`trace_out` with
/// ".<path>" and ".<path>.layers" before ".json"), report
/// obs.<path>.spans — events the program recorded, kept or dropped from
/// its rings, per traced unit (a pass, or a request on serve) — and
/// clear both collectors for the next path.
void report_trace(const std::string& trace_out, const std::string& path, double traced_units,
                  Outcome& out);

/// Untraced runs (--trace 0): one workload, its end-to-end metrics.
using Workload = void (*)(const Options&, Outcome&);
void run_figures(const Options& options, Outcome& out);
void run_flows(const Options& options, Outcome& out);
void run_serve(const Options& options, Outcome& out);

/// Traced runs (--trace 1) are the same for every workload: each
/// path's traced breakdown in turn, given `seconds` of the budget, so
/// that every per-layer metric is measured in every traced run.
void trace_figures(const Options& options, double seconds, Outcome& out);
void trace_flows(const Options& options, double seconds, Outcome& out);
void trace_serve(const Options& options, double seconds, Outcome& out);

/// Record the end of set-up (setup_s from the spawn stamp), then take
/// the start-of-run host probe.
void setup_done(const Options& options, Outcome& out);

}  // namespace perfbench
