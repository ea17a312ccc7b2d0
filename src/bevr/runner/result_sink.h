// Structured result emission for scenario runs.
//
// The runner separates *data* from *provenance*: data rows are pure
// functions of (spec, base_seed) and are emitted in grid order, so a
// run's payload is byte-identical at any thread count; provenance
// (git describe, thread count, wall time, cache effectiveness) rides
// along as metadata/summary records that tooling can strip before
// diffing. CsvSink renders metadata as '#' comment lines; JsonlSink
// emits one JSON object per line with a "type" discriminator
// ("meta" / "row" / "summary").
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bevr/runner/memo_cache.h"

namespace bevr::runner {

/// Provenance for one run, captured before any task executes.
struct RunMetadata {
  std::string scenario;
  std::string model;
  std::string git_describe;  ///< `git describe --always --dirty`, or "unknown"
  std::string git_time;      ///< HEAD committer time, ISO 8601, or "unknown"
  std::uint64_t base_seed = 0;
  unsigned threads = 1;
};

/// One data row: the grid point's evaluated columns, in column order.
struct ResultRow {
  std::size_t index = 0;  ///< position in the scenario grid
  std::vector<double> values;
};

/// Post-run provenance: timing and cache effectiveness. Wall time is
/// split into the runner's three phases — expand (validate spec,
/// build grid/plan/pool), execute (the parallel section) and emit
/// (streaming rows to the sink).
struct RunSummary {
  std::size_t rows = 0;
  double wall_seconds = 0.0;
  double task_seconds_total = 0.0;  ///< Σ per-task wall time (CPU-ish)
  double expand_seconds = 0.0;
  double execute_seconds = 0.0;
  double emit_seconds = 0.0;
  CacheStats cache;  ///< this run's memo lookups, not a shared cache's total

  /// Data-row throughput of the parallel section.
  [[nodiscard]] double rows_per_second() const {
    return execute_seconds > 0.0 ? static_cast<double>(rows) / execute_seconds
                                 : 0.0;
  }
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once, before any row; declares the column names.
  virtual void begin(const RunMetadata& metadata,
                     const std::vector<std::string>& columns) = 0;
  /// Called once per grid point, in index order.
  virtual void row(const ResultRow& row) = 0;
  /// Called once, after the last row.
  virtual void finish(const RunSummary& summary) = 0;
};

/// CSV with '#'-prefixed metadata/summary comments — drop-in for the
/// ad-hoc CSV the serial sweep tool used to print.
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}

  void begin(const RunMetadata& metadata,
             const std::vector<std::string>& columns) override;
  void row(const ResultRow& row) override;
  void finish(const RunSummary& summary) override;

 private:
  std::ostream& out_;
};

/// JSON-lines: {"type":"meta",...} / {"type":"row",...} / {"type":"summary",...}.
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}

  void begin(const RunMetadata& metadata,
             const std::vector<std::string>& columns) override;
  void row(const ResultRow& row) override;
  void finish(const RunSummary& summary) override;

 private:
  std::ostream& out_;
  std::string scenario_;
  std::vector<std::string> columns_;
};

/// Decorator: forwards everything to `inner` and, every `every` data
/// rows plus once at finish, appends a {"type":"snapshot",...} JSON
/// line carrying the global obs::MetricsRegistry state to `out`. This
/// turns a long sweep's metrics stream (bevr_run --metrics-out) into a
/// time series instead of a single end-of-run point
/// (bevr_run --snapshot-every=N). With every == 0 only the final
/// snapshot is written.
class SnapshottingSink final : public ResultSink {
 public:
  SnapshottingSink(ResultSink& inner, std::ostream& out, std::size_t every)
      : inner_(inner), out_(out), every_(every) {}

  void begin(const RunMetadata& metadata,
             const std::vector<std::string>& columns) override;
  void row(const ResultRow& row) override;
  void finish(const RunSummary& summary) override;

  [[nodiscard]] std::size_t snapshots_written() const { return snapshots_; }

 private:
  void emit_snapshot(const char* phase);

  ResultSink& inner_;
  std::ostream& out_;
  std::size_t every_;
  std::size_t rows_seen_ = 0;
  std::size_t snapshots_ = 0;
  std::string scenario_;
};

/// In-memory capture for tests and programmatic use.
class VectorSink final : public ResultSink {
 public:
  void begin(const RunMetadata& metadata,
             const std::vector<std::string>& columns) override;
  void row(const ResultRow& row) override;
  void finish(const RunSummary& summary) override;

  [[nodiscard]] const RunMetadata& metadata() const { return metadata_; }
  [[nodiscard]] const std::vector<std::string>& columns() const { return columns_; }
  [[nodiscard]] const std::vector<ResultRow>& rows() const { return rows_; }
  [[nodiscard]] const RunSummary& summary() const { return summary_; }

 private:
  RunMetadata metadata_;
  std::vector<std::string> columns_;
  std::vector<ResultRow> rows_;
  RunSummary summary_;
};

/// Format a double with enough digits to round-trip (printf "%.17g"
/// shortened): used by both sinks so CSV and JSONL payloads agree.
[[nodiscard]] std::string format_value(double value);

}  // namespace bevr::runner
