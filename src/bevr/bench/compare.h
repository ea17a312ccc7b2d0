// The regression gate: compare a current BENCH_*.json artifact against
// a baseline artifact and flag suites whose median time grew beyond a
// threshold. Comparison is by median (robust to one noisy repetition)
// and by name; suites present on only one side are reported but never
// gate (adding a suite must not fail CI, and a retired suite must not
// block the PR that retires it).
#pragma once

#include <string>
#include <vector>

namespace bevr::bench {

struct CompareEntry {
  std::string name;
  double baseline_median_ns = 0.0;
  double current_median_ns = 0.0;
  double ratio = 1.0;  ///< current / baseline (1.0 when baseline is 0)
  bool regressed = false;
  bool only_in_baseline = false;
  bool only_in_current = false;
};

struct CompareReport {
  std::vector<CompareEntry> entries;  ///< sorted by name
  double threshold = 0.0;             ///< allowed fractional growth

  [[nodiscard]] std::size_t regressions() const;
  /// Human-readable table plus a verdict line.
  [[nodiscard]] std::string render() const;
};

/// Parse both artifact documents (schema bevr.bench.v1) and compare
/// suite medians. `threshold` is fractional growth: 0.25 flags suites
/// whose median regressed by more than 25%. Throws std::runtime_error
/// on malformed artifacts (bad JSON, wrong schema, missing keys).
[[nodiscard]] CompareReport compare_artifacts(const std::string& baseline_json,
                                              const std::string& current_json,
                                              double threshold);

/// Fewest repetitions a baseline's medians may rest on.
inline constexpr int kMinBaselineRepetitions = 5;

/// Why the gate refuses to compare against this baseline, or "" when
/// it accepts it. A baseline must come from a clean tree (its
/// provenance.git carries no "-dirty" suffix) and rest on at least
/// kMinBaselineRepetitions repetitions. Throws std::runtime_error on a
/// malformed document, as compare_artifacts does.
[[nodiscard]] std::string baseline_refusal(const std::string& baseline_json);

}  // namespace bevr::bench
