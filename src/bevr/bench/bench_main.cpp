#include "bevr/bench/bench_main.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bevr/bench/artifact.h"
#include "bevr/bench/compare.h"
#include "bevr/bench/harness.h"
#include "bevr/bench/registry.h"

namespace bevr::bench {

namespace {

int usage(const char* argv0, const char* error) {
  if (error != nullptr) std::fprintf(stderr, "%s: %s\n", argv0, error);
  std::fprintf(
      stderr,
      "usage: %s [filter] [--filter SUBSTR] [--list]\n"
      "       [--smoke] [--warmup N] [--reps N]\n"
      "       [--suite NAME] [--json-out FILE]\n"
      "       [--baseline FILE] [--threshold FRAC] [--compare FILE]\n"
      "       [--quiet | --verbose]\n"
      "\n"
      "  --list       print the registered suites and exit\n"
      "  --smoke      tiny workloads (CI); recorded in the artifact\n"
      "  --warmup N   untimed repetitions before measuring (default 0)\n"
      "  --reps N     timed repetitions per suite (default 1)\n"
      "  --json-out   artifact path (default BENCH_<suite>.json in CWD)\n"
      "  --baseline   compare this run's medians against a prior artifact;\n"
      "               exit 3 when any suite regressed beyond the threshold,\n"
      "               2 when the baseline is dirty or has < 5 reps\n"
      "  --threshold  allowed fractional median growth (default 0.25)\n"
      "  --compare    compare an existing artifact FILE against --baseline\n"
      "               without running anything\n"
      "  --quiet      silence suite table output (default when more than\n"
      "               one suite runs); --verbose forces tables on\n",
      argv0);
  return 2;
}

bool parse_int(const char* text, int min_value, int& out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < min_value || value > 1'000'000) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

bool parse_fraction(const char* text, double& out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !(value >= 0.0) || value > 100.0) {
    return false;
  }
  out = value;
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

/// The gate compares only against a clean baseline with enough
/// repetitions (bench::baseline_refusal); says why on stderr otherwise.
bool admissible_baseline(const char* argv0, const std::string& path,
                         const std::string& text) {
  const std::string refusal = baseline_refusal(text);
  if (refusal.empty()) return true;
  std::fprintf(stderr, "%s: refusing baseline '%s': %s\n", argv0,
               path.c_str(), refusal.c_str());
  return false;
}

void print_summary(const std::vector<BenchmarkResult>& results) {
  std::printf("\n== bench summary ==\n");
  std::printf("%-32s %5s %12s %12s %12s %12s %14s\n", "suite", "reps",
              "median_ms", "mad_ms", "min_ms", "ns_per_op", "items_per_sec");
  for (const BenchmarkResult& result : results) {
    std::printf("%-32s %5llu %12.3f %12.3f %12.3f %12.1f %14.1f\n",
                result.name.c_str(),
                static_cast<unsigned long long>(result.stats.samples),
                result.stats.median_ns * 1e-6, result.stats.mad_ns * 1e-6,
                result.stats.min_ns * 1e-6,
                ns_per_op(result.stats, result.items),
                items_per_sec(result.stats, result.items));
  }
}

}  // namespace

int bench_main(int argc, char** argv) try {
  std::string filter;
  std::string suite_name;
  std::string json_out;
  std::string baseline_path;
  std::string compare_path;
  double threshold = 0.25;
  bool list_only = false;
  bool quiet_flag = false;
  bool verbose_flag = false;
  RunConfig config;

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
    if (has_inline && (arg == "--list" || arg == "--smoke" ||
                       arg == "--quiet" || arg == "--verbose")) {
      return usage(argv[0], (arg + " does not take a value").c_str());
    }
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--quiet") {
      quiet_flag = true;
    } else if (arg == "--verbose") {
      verbose_flag = true;
    } else if (arg == "--filter") {
      const char* value = next_value("--filter");
      if (value == nullptr) return usage(argv[0], nullptr);
      filter = value;
    } else if (arg == "--suite") {
      const char* value = next_value("--suite");
      if (value == nullptr) return usage(argv[0], nullptr);
      suite_name = value;
    } else if (arg == "--json-out") {
      const char* value = next_value("--json-out");
      if (value == nullptr) return usage(argv[0], nullptr);
      json_out = value;
    } else if (arg == "--baseline") {
      const char* value = next_value("--baseline");
      if (value == nullptr) return usage(argv[0], nullptr);
      baseline_path = value;
    } else if (arg == "--compare") {
      const char* value = next_value("--compare");
      if (value == nullptr) return usage(argv[0], nullptr);
      compare_path = value;
    } else if (arg == "--warmup") {
      const char* value = next_value("--warmup");
      if (value == nullptr) return usage(argv[0], nullptr);
      if (!parse_int(value, 0, config.warmup)) {
        return usage(argv[0], "--warmup must be a nonnegative integer");
      }
    } else if (arg == "--reps") {
      const char* value = next_value("--reps");
      if (value == nullptr) return usage(argv[0], nullptr);
      if (!parse_int(value, 1, config.repetitions)) {
        return usage(argv[0], "--reps must be a positive integer");
      }
    } else if (arg == "--threshold") {
      const char* value = next_value("--threshold");
      if (value == nullptr) return usage(argv[0], nullptr);
      if (!parse_fraction(value, threshold)) {
        return usage(argv[0],
                     "--threshold must be a nonnegative fraction (e.g. 0.25)");
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0], ("unknown option '" + arg + "'").c_str());
    } else if (filter.empty()) {
      filter = arg;
    } else {
      return usage(argv[0], "more than one filter given");
    }
  }

  // File-vs-file compare mode: no benchmarks run at all.
  if (!compare_path.empty()) {
    if (baseline_path.empty()) {
      return usage(argv[0], "--compare requires --baseline");
    }
    std::string baseline_text, current_text;
    if (!read_file(baseline_path, baseline_text)) {
      std::fprintf(stderr, "%s: cannot read baseline '%s'\n", argv[0],
                   baseline_path.c_str());
      return 2;
    }
    if (!read_file(compare_path, current_text)) {
      std::fprintf(stderr, "%s: cannot read artifact '%s'\n", argv[0],
                   compare_path.c_str());
      return 2;
    }
    if (!admissible_baseline(argv[0], baseline_path, baseline_text)) return 2;
    const CompareReport report =
        compare_artifacts(baseline_text, current_text, threshold);
    std::fputs(report.render().c_str(), stdout);
    return report.regressions() == 0 ? 0 : 3;
  }

  const auto selected = BenchmarkRegistry::instance().match(filter);
  if (list_only) {
    std::printf("%-32s %s\n", "suite", "description");
    for (const BenchmarkInfo& info : selected) {
      std::printf("%-32s %s\n", info.name.c_str(), info.description.c_str());
    }
    std::printf("%zu suite(s)\n", selected.size());
    return 0;
  }
  if (selected.empty()) {
    return usage(argv[0],
                 filter.empty()
                     ? "no benchmarks registered in this binary"
                     : ("no suite matches '" + filter + "' (try --list)")
                           .c_str());
  }

  // One suite keeps its paper-vs-measured tables on stdout (the
  // historical behaviour); an aggregate run silences them so 17 suites
  // don't interleave. Both are overridable.
  config.quiet = quiet_flag || (selected.size() > 1 && !verbose_flag);

  std::vector<BenchmarkResult> results;
  std::vector<std::string> failures;
  for (const BenchmarkInfo& info : selected) {
    std::fprintf(stderr, "[bench] %-32s ", info.name.c_str());
    std::fflush(stderr);
    BenchmarkResult result = run_benchmark(info, config);
    std::fprintf(stderr, "%10.3f ms median (%llu rep%s)%s\n",
                 result.stats.median_ns * 1e-6,
                 static_cast<unsigned long long>(result.stats.samples),
                 result.stats.samples == 1 ? "" : "s",
                 result.failures.empty() ? "" : "  FAILURES");
    for (const std::string& failure : result.failures) {
      failures.push_back(failure);
    }
    results.push_back(std::move(result));
  }

  print_summary(results);

  if (suite_name.empty()) {
    suite_name = selected.size() == 1 ? selected.front().name : "all";
  }
  const std::string artifact =
      render_artifact(suite_name, collect_provenance(config), results,
                      global_metrics_json());
  const std::string artifact_path =
      json_out.empty() ? "BENCH_" + suite_name + ".json" : json_out;
  {
    std::ofstream file(artifact_path);
    if (!file) {
      std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0],
                   artifact_path.c_str());
      return 2;
    }
    file << artifact;
  }
  std::printf("wrote %s (%zu suite%s)\n", artifact_path.c_str(),
              results.size(), results.size() == 1 ? "" : "s");

  int exit_code = 0;
  if (!baseline_path.empty()) {
    std::string baseline_text;
    if (!read_file(baseline_path, baseline_text)) {
      std::fprintf(stderr, "%s: cannot read baseline '%s'\n", argv[0],
                   baseline_path.c_str());
      return 2;
    }
    if (!admissible_baseline(argv[0], baseline_path, baseline_text)) return 2;
    const CompareReport report =
        compare_artifacts(baseline_text, artifact, threshold);
    std::fputs(report.render().c_str(), stdout);
    if (report.regressions() != 0) exit_code = 3;
  }

  if (!failures.empty()) {
    std::fprintf(stderr, "\n%zu contract failure(s):\n", failures.size());
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "  FAIL: %s\n", failure.c_str());
    }
    exit_code = 1;
  }
  return exit_code;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_main: %s\n", error.what());
  return 2;
}

}  // namespace bevr::bench
