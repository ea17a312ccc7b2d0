// bevr_run — list, filter and execute the named paper scenarios on the
// parallel experiment engine. Replaces the serial guts of sweep.cpp
// for everything the registry covers (sweep remains for one-off custom
// parameter combinations).
//
// Usage:
//   bevr_run --list [filter]
//   bevr_run <scenario|filter> [--threads N] [--seed S]
//            [--format csv|jsonl] [--output FILE] [--no-gap]
//            [--report text|json|prom] [--metrics-out FILE]
//            [--snapshot-every N] [--trace-out FILE] [--flight-dump FILE]
//
//   --list        print matching scenarios (name, model, grid, description)
//   --threads N   worker threads (default 1; 0 = hardware concurrency)
//   --seed S      base seed for stochastic scenarios (default 42);
//                 results are bit-identical for a fixed seed at any N
//   --format      csv (default) or jsonl
//   --output      write to FILE instead of stdout
//   --no-gap      skip the bandwidth-gap column (the expensive root solve)
//   --report F    render the end-of-run metrics report as text, json or
//                 prom (Prometheus exposition); goes to stderr unless
//                 --metrics-out is given
//   --metrics-out write the metrics report to FILE (default format prom)
//   --snapshot-every N
//                 write a {"type":"snapshot",...} JSON line to the
//                 --metrics-out FILE (required) every N data rows plus
//                 one final line per scenario, turning the metrics file
//                 into a JSONL time series of the run's instrumentation
//   --trace-out   record trace spans and write a Chrome/Perfetto
//                 trace-event JSON file (open at https://ui.perfetto.dev)
//   --flight-dump FILE
//                 write the always-on flight recorder's ring contents
//                 as bevr.flight.v1 JSON after the run
//
// All value flags also accept the --flag=value spelling.
//
// Examples:
//   bevr_run --list fig3
//   bevr_run fig3_rigid --threads 8 --format jsonl
//   bevr_run fig4 --threads 4 --output fig4_all.csv   # runs every fig4_*
//   bevr_run fig2 --threads 8 --trace-out fig2.trace.json --report text
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bevr/obs/flight_recorder.h"
#include "bevr/obs/metrics.h"
#include "bevr/obs/report.h"
#include "bevr/obs/slo.h"
#include "bevr/obs/trace.h"
#include "bevr/runner/runner.h"

namespace {

using namespace bevr::runner;

/// Strict decimal parse for flag values: digits only (no sign, no
/// trailing junk), bounded. strtoul alone would accept "-3" and wrap
/// it to ~4e9 — for --threads that means attempting 4 billion threads.
bool parse_count(const char* text, unsigned long long max_value,
                 unsigned long long& out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max_value) return false;
  out = value;
  return true;
}

int usage(const char* argv0, const char* error) {
  if (error != nullptr) std::fprintf(stderr, "%s: %s\n", argv0, error);
  std::fprintf(stderr,
               "usage: %s --list [filter]\n"
               "       %s <scenario|filter> [--threads N] [--seed S]\n"
               "          [--format csv|jsonl] [--output FILE] [--no-gap]\n"
               "          [--report text|json|prom] [--metrics-out FILE] "
               "[--snapshot-every N] [--trace-out FILE] "
               "[--flight-dump FILE]\n",
               argv0, argv0);
  return 2;
}

void list_scenarios(const std::string& filter) {
  const auto matches = ScenarioRegistry::builtin().match(filter);
  std::printf("%-24s %-14s %5s  %s\n", "name", "model", "grid", "description");
  for (const ScenarioSpec* spec : matches) {
    std::printf("%-24s %-14s %5d  %s\n", spec->name.c_str(),
                to_string(spec->model).c_str(), spec->grid.points,
                spec->description.c_str());
  }
  std::printf("%zu scenario(s)\n", matches.size());
}

}  // namespace

int main(int argc, char** argv) try {
  std::string target;
  std::string format = "csv";
  std::string output_path;
  std::string metrics_path;
  std::string trace_path;
  std::string flight_path;
  std::string report_name;
  bool list_only = false;
  bool skip_gap = false;
  unsigned long long snapshot_every = 0;
  RunOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both `--flag value` and `--flag=value`.
    std::string inline_value;
    bool has_inline = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.erase(eq);
        has_inline = true;
      }
    }
    const auto next_value = [&](const char* flag) -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (has_inline && (arg == "--list" || arg == "--no-gap")) {
      return usage(argv[0], (arg + " does not take a value").c_str());
    }
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--threads") {
      const char* value = next_value("--threads");
      if (value == nullptr) return usage(argv[0], nullptr);
      unsigned long long threads = 0;
      if (!parse_count(value, ThreadPool::kMaxThreads, threads)) {
        return usage(argv[0], "--threads must be an integer in [0, 256]");
      }
      options.threads = static_cast<unsigned>(threads);
    } else if (arg == "--seed") {
      const char* value = next_value("--seed");
      if (value == nullptr) return usage(argv[0], nullptr);
      unsigned long long seed = 0;
      if (!parse_count(value, std::numeric_limits<std::uint64_t>::max(),
                       seed)) {
        return usage(argv[0], "--seed must be a nonnegative integer");
      }
      options.base_seed = seed;
    } else if (arg == "--format") {
      const char* value = next_value("--format");
      if (value == nullptr) return usage(argv[0], nullptr);
      format = value;
      if (format != "csv" && format != "jsonl") {
        return usage(argv[0], "--format must be csv or jsonl");
      }
    } else if (arg == "--output") {
      const char* value = next_value("--output");
      if (value == nullptr) return usage(argv[0], nullptr);
      output_path = value;
    } else if (arg == "--metrics-out") {
      const char* value = next_value("--metrics-out");
      if (value == nullptr) return usage(argv[0], nullptr);
      metrics_path = value;
    } else if (arg == "--snapshot-every") {
      const char* value = next_value("--snapshot-every");
      if (value == nullptr) return usage(argv[0], nullptr);
      if (!parse_count(value, 1ULL << 32, snapshot_every) ||
          snapshot_every == 0) {
        return usage(argv[0], "--snapshot-every must be a positive integer");
      }
    } else if (arg == "--trace-out") {
      const char* value = next_value("--trace-out");
      if (value == nullptr) return usage(argv[0], nullptr);
      trace_path = value;
    } else if (arg == "--flight-dump") {
      const char* value = next_value("--flight-dump");
      if (value == nullptr) return usage(argv[0], nullptr);
      flight_path = value;
    } else if (arg == "--report") {
      const char* value = next_value("--report");
      if (value == nullptr) return usage(argv[0], nullptr);
      report_name = value;
      if (report_name != "text" && report_name != "json" &&
          report_name != "prom") {
        return usage(argv[0], "--report must be text, json or prom");
      }
    } else if (arg == "--no-gap") {
      skip_gap = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0], ("unknown option '" + arg + "'").c_str());
    } else if (target.empty()) {
      target = arg;
    } else {
      return usage(argv[0], "more than one scenario/filter given");
    }
  }

  if (list_only) {
    list_scenarios(target);
    return 0;
  }
  if (target.empty()) {
    return usage(argv[0], "no scenario given (try --list)");
  }

  const auto& registry = ScenarioRegistry::builtin();
  std::vector<const ScenarioSpec*> to_run;
  if (const ScenarioSpec* exact = registry.find(target)) {
    to_run.push_back(exact);
  } else {
    to_run = registry.match(target);
  }
  if (to_run.empty()) {
    return usage(argv[0],
                 ("no scenario matches '" + target + "' (try --list)").c_str());
  }

  std::ofstream file;
  if (!output_path.empty()) {
    file.open(output_path);
    if (!file) {
      std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0],
                   output_path.c_str());
      return 1;
    }
  }
  std::ostream& out = output_path.empty() ? std::cout : file;

  // --snapshot-every repurposes the metrics file as a JSONL stream, so
  // it must be open before the first scenario runs.
  std::ofstream snapshot_file;
  if (snapshot_every > 0) {
    if (metrics_path.empty()) {
      return usage(argv[0], "--snapshot-every requires --metrics-out");
    }
    snapshot_file.open(metrics_path);
    if (!snapshot_file) {
      std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0],
                   metrics_path.c_str());
      return 1;
    }
  }

  // Tracing is opt-in (span recording costs a few ns even when nobody
  // reads the buffers); metrics stay on at their batched default cost.
  bevr::obs::TraceCollector::set_thread_track("main", 1);
  if (!trace_path.empty()) {
    bevr::obs::TraceCollector::global().set_enabled(true);
  }

  // One cache + one pool shared across all matched scenarios: λ-
  // calibrations and thread start-up amortise over the whole batch.
  options.cache = std::make_shared<MemoCache>();
  std::unique_ptr<ThreadPool> pool;
  if (options.threads != 1) {
    pool = std::make_unique<ThreadPool>(options.threads);
    options.pool = pool.get();
  }

  for (const ScenarioSpec* matched : to_run) {
    ScenarioSpec spec = *matched;
    if (skip_gap) spec.with_bandwidth_gap = false;
    std::unique_ptr<ResultSink> sink;
    if (format == "jsonl") {
      sink = std::make_unique<JsonlSink>(out);
    } else {
      sink = std::make_unique<CsvSink>(out);
    }
    std::unique_ptr<SnapshottingSink> snapshotting;
    if (snapshot_every > 0) {
      snapshotting = std::make_unique<SnapshottingSink>(
          *sink, snapshot_file, static_cast<std::size_t>(snapshot_every));
    }
    const RunSummary summary = run_scenario(
        spec, options, snapshotting ? *snapshotting : *sink);
    std::fprintf(stderr,
                 "%-24s %4zu rows  %7.2fs wall  cache %llu/%llu hits (%.0f%%)\n",
                 spec.name.c_str(), summary.rows, summary.wall_seconds,
                 static_cast<unsigned long long>(summary.cache.hits),
                 static_cast<unsigned long long>(summary.cache.hits +
                                                 summary.cache.misses),
                 100.0 * summary.cache.hit_rate());
  }

  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0],
                   trace_path.c_str());
      return 1;
    }
    bevr::obs::TraceCollector::global().write_chrome_trace(trace_file);
  }

  if (!flight_path.empty()) {
    std::ofstream flight_file(flight_path);
    if (!flight_file) {
      std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0],
                   flight_path.c_str());
      return 1;
    }
    bevr::obs::FlightRecorder::global().write_json(flight_file, "on-demand");
  }

  if (!report_name.empty() || (!metrics_path.empty() && snapshot_every == 0)) {
    // A metrics file with no explicit format gets Prometheus exposition
    // (what a scraper expects); on stderr the human-readable text wins.
    // Under --snapshot-every the metrics file already holds the JSONL
    // snapshot stream, so only an explicit --report (to stderr) remains.
    const bevr::obs::ReportFormat report_format =
        bevr::obs::parse_report_format(
            !report_name.empty() ? report_name
                                 : (metrics_path.empty() ? "text" : "prom"));
    const std::string report = bevr::obs::render_report(
        bevr::obs::ReportData{bevr::obs::MetricsRegistry::global().snapshot(),
                              bevr::obs::SloRegistry::global().snapshot_all()},
        report_format);
    if (!metrics_path.empty() && snapshot_every == 0) {
      std::ofstream metrics_file(metrics_path);
      if (!metrics_file) {
        std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0],
                     metrics_path.c_str());
        return 1;
      }
      metrics_file << report;
    } else {
      std::fputs(report.c_str(), stderr);
    }
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bevr_run: %s\n", error.what());
  return 1;
}
