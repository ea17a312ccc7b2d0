#include "bevr/bench/artifact.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "bevr/obs/json_text.h"
#include "bevr/obs/metrics.h"
#include "bevr/obs/report.h"
#include "bevr/runner/runner.h"

#ifndef BEVR_BUILD_TYPE
#define BEVR_BUILD_TYPE "unknown"
#endif

namespace bevr::bench {

using obs::json_escape;

namespace {

std::string format_double(double value) {
  if (std::isnan(value) || std::isinf(value)) return "null";  // strict JSON
  char buffer[64];
  // Shortest round-tripping representation, same policy as the obs
  // and runner emitters.
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(buffer, "%lf", &parsed);
    if (parsed == value) break;
  }
  return buffer;
}

}  // namespace

Provenance collect_provenance(const RunConfig& config) {
  Provenance provenance;
  provenance.git = runner::git_describe();
  provenance.git_commit_time = runner::git_commit_time();
#ifdef __VERSION__
  provenance.compiler = __VERSION__;
#else
  provenance.compiler = "unknown";
#endif
  provenance.build_type = BEVR_BUILD_TYPE;
  provenance.threads = std::thread::hardware_concurrency();
  provenance.cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  provenance.obs_enabled = obs::MetricsRegistry::global().enabled();
  provenance.smoke = config.smoke;
  provenance.warmup = config.warmup;
  provenance.repetitions = config.repetitions;
  return provenance;
}

std::string global_metrics_json() {
  std::string report = obs::render_report(
      obs::MetricsRegistry::global().snapshot(), obs::ReportFormat::kJson);
  while (!report.empty() && (report.back() == '\n' || report.back() == '\r')) {
    report.pop_back();
  }
  return report.empty() ? "{}" : report;
}

std::string render_artifact(const std::string& suite,
                            const Provenance& provenance,
                            const std::vector<BenchmarkResult>& results,
                            const std::string& metrics_json) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kArtifactSchema << "\"";
  out << ",\"suite\":\"" << json_escape(suite) << "\"";
  out << ",\"provenance\":{"
      << "\"git\":\"" << json_escape(provenance.git) << "\""
      << ",\"git_commit_time\":\"" << json_escape(provenance.git_commit_time)
      << "\""
      << ",\"compiler\":\"" << json_escape(provenance.compiler) << "\""
      << ",\"build_type\":\"" << json_escape(provenance.build_type) << "\""
      << ",\"threads\":" << provenance.threads
      << ",\"cpus\":" << provenance.cpus
      << ",\"obs_enabled\":" << (provenance.obs_enabled ? "true" : "false")
      << ",\"smoke\":" << (provenance.smoke ? "true" : "false")
      << ",\"warmup\":" << provenance.warmup
      << ",\"repetitions\":" << provenance.repetitions << "}";
  out << ",\"benchmarks\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchmarkResult& result = results[i];
    if (i != 0) out << ",";
    out << "{\"name\":\"" << json_escape(result.name) << "\""
        << ",\"description\":\"" << json_escape(result.description) << "\""
        << ",\"items\":" << result.items << ",\"samples_ns\":[";
    for (std::size_t s = 0; s < result.samples_ns.size(); ++s) {
      if (s != 0) out << ",";
      out << format_double(result.samples_ns[s]);
    }
    out << "],\"stats\":{"
        << "\"samples\":" << result.stats.samples
        << ",\"min_ns\":" << format_double(result.stats.min_ns)
        << ",\"max_ns\":" << format_double(result.stats.max_ns)
        << ",\"mean_ns\":" << format_double(result.stats.mean_ns)
        << ",\"median_ns\":" << format_double(result.stats.median_ns)
        << ",\"mad_ns\":" << format_double(result.stats.mad_ns)
        << ",\"ns_per_op\":"
        << format_double(ns_per_op(result.stats, result.items))
        << ",\"items_per_sec\":"
        << format_double(items_per_sec(result.stats, result.items)) << "}";
    out << ",\"failures\":[";
    for (std::size_t f = 0; f < result.failures.size(); ++f) {
      if (f != 0) out << ",";
      out << "\"" << json_escape(result.failures[f]) << "\"";
    }
    out << "]}";
  }
  out << "],\"metrics\":" << metrics_json << "}\n";
  return out.str();
}

}  // namespace bevr::bench
