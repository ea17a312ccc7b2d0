#include "bevr/runner/result_sink.h"

#include <cmath>
#include <cstdio>

#include "bevr/obs/json_text.h"
#include "bevr/obs/metrics.h"
#include "bevr/obs/report.h"

namespace bevr::runner {

using obs::json_escape;

std::string format_value(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  // Shortest representation that round-trips: try increasing precision.
  char buffer[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(buffer, "%lf", &parsed);
    if (parsed == value) break;
  }
  return buffer;
}

void CsvSink::begin(const RunMetadata& metadata,
                    const std::vector<std::string>& columns) {
  out_ << "# scenario=" << metadata.scenario << " model=" << metadata.model
       << " seed=" << metadata.base_seed << " threads=" << metadata.threads
       << " git=" << metadata.git_describe << " git_time=" << metadata.git_time
       << "\n";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    out_ << (i == 0 ? "" : ",") << columns[i];
  }
  out_ << "\n";
}

void CsvSink::row(const ResultRow& row) {
  for (std::size_t i = 0; i < row.values.size(); ++i) {
    out_ << (i == 0 ? "" : ",") << format_value(row.values[i]);
  }
  out_ << "\n";
}

void CsvSink::finish(const RunSummary& summary) {
  out_ << "# rows=" << summary.rows << " wall_s=" << format_value(summary.wall_seconds)
       << " task_s=" << format_value(summary.task_seconds_total)
       << " expand_s=" << format_value(summary.expand_seconds)
       << " execute_s=" << format_value(summary.execute_seconds)
       << " emit_s=" << format_value(summary.emit_seconds)
       << " rows_per_s=" << format_value(summary.rows_per_second())
       << " cache_hits=" << summary.cache.hits
       << " cache_misses=" << summary.cache.misses << "\n";
  out_.flush();
}

void JsonlSink::begin(const RunMetadata& metadata,
                      const std::vector<std::string>& columns) {
  scenario_ = metadata.scenario;
  columns_ = columns;
  out_ << "{\"type\":\"meta\",\"scenario\":\"" << json_escape(metadata.scenario)
       << "\",\"model\":\"" << json_escape(metadata.model)
       << "\",\"git\":\"" << json_escape(metadata.git_describe)
       << "\",\"git_time\":\"" << json_escape(metadata.git_time)
       << "\",\"seed\":" << metadata.base_seed
       << ",\"threads\":" << metadata.threads << "}\n";
}

void JsonlSink::row(const ResultRow& row) {
  out_ << "{\"type\":\"row\",\"scenario\":\"" << json_escape(scenario_)
       << "\",\"index\":" << row.index;
  for (std::size_t i = 0; i < row.values.size() && i < columns_.size(); ++i) {
    const double v = row.values[i];
    out_ << ",\"" << json_escape(columns_[i]) << "\":";
    // JSON has no inf/nan literals; emit them as strings.
    if (std::isfinite(v)) {
      out_ << format_value(v);
    } else {
      out_ << '"' << format_value(v) << '"';
    }
  }
  out_ << "}\n";
}

void JsonlSink::finish(const RunSummary& summary) {
  out_ << "{\"type\":\"summary\",\"scenario\":\"" << json_escape(scenario_)
       << "\",\"rows\":" << summary.rows
       << ",\"wall_s\":" << format_value(summary.wall_seconds)
       << ",\"task_s\":" << format_value(summary.task_seconds_total)
       << ",\"expand_s\":" << format_value(summary.expand_seconds)
       << ",\"execute_s\":" << format_value(summary.execute_seconds)
       << ",\"emit_s\":" << format_value(summary.emit_seconds)
       << ",\"rows_per_s\":" << format_value(summary.rows_per_second())
       << ",\"cache_hits\":" << summary.cache.hits
       << ",\"cache_misses\":" << summary.cache.misses
       << ",\"cache_hit_rate\":" << format_value(summary.cache.hit_rate())
       << "}\n";
  out_.flush();
}

void SnapshottingSink::begin(const RunMetadata& metadata,
                             const std::vector<std::string>& columns) {
  scenario_ = metadata.scenario;
  rows_seen_ = 0;
  inner_.begin(metadata, columns);
}

void SnapshottingSink::row(const ResultRow& row) {
  inner_.row(row);
  ++rows_seen_;
  if (every_ > 0 && rows_seen_ % every_ == 0) {
    emit_snapshot("periodic");
  }
}

void SnapshottingSink::finish(const RunSummary& summary) {
  inner_.finish(summary);
  emit_snapshot("final");
  out_.flush();
}

void SnapshottingSink::emit_snapshot(const char* phase) {
  // render_report's JSON is a single object with a trailing newline;
  // strip it so the snapshot stays one JSONL line. The report carries
  // the bevr.snapshot.v1 schema tag, capture timestamps and any SLO
  // readings alongside the metrics.
  std::string metrics = obs::render_report(
      obs::ReportData{obs::MetricsRegistry::global().snapshot(),
                      obs::SloRegistry::global().snapshot_all()},
      obs::ReportFormat::kJson);
  while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
  out_ << "{\"type\":\"snapshot\",\"scenario\":\"" << json_escape(scenario_)
       << "\",\"phase\":\"" << phase << "\",\"rows\":" << rows_seen_
       << ",\"metrics\":" << metrics << "}\n";
  ++snapshots_;
}

void VectorSink::begin(const RunMetadata& metadata,
                       const std::vector<std::string>& columns) {
  metadata_ = metadata;
  columns_ = columns;
  rows_.clear();
}

void VectorSink::row(const ResultRow& row) { rows_.push_back(row); }

void VectorSink::finish(const RunSummary& summary) { summary_ = summary; }

}  // namespace bevr::runner
