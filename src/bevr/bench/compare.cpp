#include "bevr/bench/compare.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bevr/bench/artifact.h"
#include "bevr/bench/json.h"

namespace bevr::bench {

namespace {

json::ValuePtr parse_artifact(const std::string& document,
                              const char* label) {
  try {
    return json::parse(document);
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(std::string(label) + " artifact: " +
                             error.what());
  }
}

/// name → median_ns for every suite in one artifact document.
std::map<std::string, double> suite_medians(const std::string& document,
                                            const char* label) {
  const json::ValuePtr root = parse_artifact(document, label);
  const auto require = [&](const json::ValuePtr& value,
                           const char* what) -> json::ValuePtr {
    if (!value) {
      throw std::runtime_error(std::string(label) + " artifact: missing " +
                               what);
    }
    return value;
  };
  const json::ValuePtr schema = require(root->get("schema"), "\"schema\"");
  if (!schema->is_string() || schema->string != kArtifactSchema) {
    throw std::runtime_error(std::string(label) +
                             " artifact: unsupported schema (want \"" +
                             kArtifactSchema + "\")");
  }
  const json::ValuePtr benchmarks =
      require(root->get("benchmarks"), "\"benchmarks\"");
  if (!benchmarks->is_array()) {
    throw std::runtime_error(std::string(label) +
                             " artifact: \"benchmarks\" is not an array");
  }
  std::map<std::string, double> medians;
  for (const json::ValuePtr& entry : benchmarks->array) {
    const json::ValuePtr name = require(entry->get("name"), "benchmark name");
    const json::ValuePtr stats =
        require(entry->get("stats"), "benchmark stats");
    const json::ValuePtr median =
        require(stats->get("median_ns"), "stats.median_ns");
    if (!name->is_string() || !median->is_number()) {
      throw std::runtime_error(std::string(label) +
                               " artifact: malformed benchmark entry");
    }
    medians[name->string] = median->number;
  }
  return medians;
}

}  // namespace

std::string baseline_refusal(const std::string& baseline_json) {
  const json::ValuePtr root = parse_artifact(baseline_json, "baseline");
  const json::ValuePtr provenance = root->get("provenance");
  const json::ValuePtr git = provenance ? provenance->get("git") : nullptr;
  const json::ValuePtr reps =
      provenance ? provenance->get("repetitions") : nullptr;
  if (!git || !git->is_string() || !reps || !reps->is_number()) {
    return "no provenance.git and provenance.repetitions";
  }
  const std::string suffix = "-dirty";
  if (git->string.size() >= suffix.size() &&
      git->string.compare(git->string.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
    return "recorded from a dirty tree (" + git->string + ")";
  }
  if (reps->number < kMinBaselineRepetitions) {
    char reason[96];
    std::snprintf(reason, sizeof reason,
                  "%g repetitions, fewer than %d", reps->number,
                  kMinBaselineRepetitions);
    return reason;
  }
  return "";
}

std::size_t CompareReport::regressions() const {
  std::size_t count = 0;
  for (const CompareEntry& entry : entries) {
    if (entry.regressed) ++count;
  }
  return count;
}

std::string CompareReport::render() const {
  std::ostringstream out;
  out << "== baseline compare (median, threshold +"
      << static_cast<int>(threshold * 100.0) << "%) ==\n";
  char line[256];
  std::snprintf(line, sizeof line, "%-32s %14s %14s %8s  %s\n", "suite",
                "baseline_ns", "current_ns", "ratio", "verdict");
  out << line;
  for (const CompareEntry& entry : entries) {
    const char* verdict = entry.regressed          ? "REGRESSED"
                          : entry.only_in_baseline ? "removed"
                          : entry.only_in_current  ? "new"
                                                   : "ok";
    std::snprintf(line, sizeof line, "%-32s %14.4g %14.4g %8.3f  %s\n",
                  entry.name.c_str(), entry.baseline_median_ns,
                  entry.current_median_ns, entry.ratio, verdict);
    out << line;
  }
  const std::size_t regressed = regressions();
  if (regressed == 0) {
    out << "no regressions\n";
  } else {
    out << regressed << " suite(s) regressed beyond the threshold\n";
  }
  return out.str();
}

CompareReport compare_artifacts(const std::string& baseline_json,
                                const std::string& current_json,
                                double threshold) {
  const auto baseline = suite_medians(baseline_json, "baseline");
  const auto current = suite_medians(current_json, "current");

  CompareReport report;
  report.threshold = threshold;
  for (const auto& [name, baseline_median] : baseline) {
    CompareEntry entry;
    entry.name = name;
    entry.baseline_median_ns = baseline_median;
    const auto it = current.find(name);
    if (it == current.end()) {
      entry.only_in_baseline = true;
    } else {
      entry.current_median_ns = it->second;
      entry.ratio = baseline_median > 0.0
                        ? it->second / baseline_median
                        : 1.0;
      entry.regressed = entry.ratio > 1.0 + threshold;
    }
    report.entries.push_back(std::move(entry));
  }
  for (const auto& [name, current_median] : current) {
    if (baseline.find(name) != baseline.end()) continue;
    CompareEntry entry;
    entry.name = name;
    entry.current_median_ns = current_median;
    entry.only_in_current = true;
    report.entries.push_back(std::move(entry));
  }
  std::sort(report.entries.begin(), report.entries.end(),
            [](const CompareEntry& a, const CompareEntry& b) {
              return a.name < b.name;
            });
  return report;
}

}  // namespace bevr::bench
