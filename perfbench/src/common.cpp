#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "bevr/obs/metrics.h"
#include "bevr/runner/runner.h"
#include "stats.h"

namespace perfbench {

void Outcome::metric(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::logic_error("bad metric name " + name);
  require(std::isfinite(value), name + " is not finite");
  metrics_[name] = Value{std::isfinite(value) ? value : 0.0, unit};
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failed(1, what);
}

void Outcome::require(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void Outcome::failed(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  correct_ = false;
  std::cerr << "perfbench: " << n << " failed: " << what << "\n";
}

std::string Outcome::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ && failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics_) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value.value);
    out << sep << "\"" << name << "\": {\"value\": " << number << ", \"unit\": \""
        << value.unit << "\"}";
    sep = ", ";
  }
  out << "}}";
  return out.str();
}

std::int64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(mono_ns() - start_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

void print_host_probe(const char* when) {
  // Compute: a fixed integer recurrence the compiler cannot fold.
  std::int64_t start = mono_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ULL + (x >> 29);
  const double compute_ms = static_cast<double>(mono_ns() - start) * 1e-6;

  // Memory: a random cyclic permutation of 131072 slots (1 MiB), chased
  // so every load depends on the one before.
  constexpr std::size_t kSlots = 1 << 17;
  std::vector<std::uint64_t> next(kSlots);
  std::vector<std::uint64_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(7);
  for (std::size_t i = kSlots - 1; i > 0; --i) std::swap(order[i], order[rng() % (i + 1)]);
  for (std::size_t i = 0; i < kSlots; ++i) next[order[i]] = order[(i + 1) % kSlots];
  constexpr int kSteps = 4'000'000;
  std::uint64_t at = order[0];
  start = mono_ns();
  for (int i = 0; i < kSteps; ++i) at = next[at];
  const double chase_ns = static_cast<double>(mono_ns() - start) / kSteps;
  // The trailing bit depends on both loops' results, so neither can be
  // optimised away.
  std::printf("host_probe %s compute_ms=%.3f chase_ns_per_load=%.3f (%llu)\n", when,
              compute_ms, chase_ns, static_cast<unsigned long long>((x ^ at) & 1));
}

std::vector<const bevr::runner::ScenarioSpec*> scenarios_with_prefix(
    const std::vector<std::string>& prefixes) {
  std::vector<const bevr::runner::ScenarioSpec*> out;
  for (const auto& spec : bevr::runner::ScenarioRegistry::builtin().all()) {
    for (const auto& prefix : prefixes) {
      if (spec.name.rfind(prefix, 0) == 0) {
        out.push_back(&spec);
        break;
      }
    }
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::string sanity_problem(const bevr::runner::ScenarioSpec& spec,
                           const std::string& csv) {
  const std::vector<std::string> columns = bevr::runner::scenario_columns(spec);
  // Utilities, blocking probabilities and shares: bounded by 1, up to
  // the rounding of the model's series sums (the seed-42 golden of
  // sim_mm_inf_validation has R = 1 + 3.8e-14).
  constexpr double kRounding = 1e-9;
  const auto bounded = [](const std::string& column) {
    for (const char* token : {"util", "blocking", "best_effort", "reservation",
                              "erlang_b", "alt_share"}) {
      if (column.find(token) != std::string::npos) return true;
    }
    return false;
  };
  std::istringstream in(strip_comments(csv));
  std::string line;
  std::getline(in, line);  // header
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    std::istringstream fields(line);
    std::string field;
    for (std::size_t c = 0; std::getline(fields, field, ','); ++c) {
      const double v = std::strtod(field.c_str(), nullptr);
      if (!std::isfinite(v)) return "non-finite value in row " + std::to_string(rows);
      if (c < columns.size() && bounded(columns[c]) && (v < -kRounding || v > 1.0 + kRounding)) {
        return columns[c] + " outside [0, 1] in row " + std::to_string(rows);
      }
    }
  }
  const auto expected = static_cast<std::size_t>(spec.grid.points);
  if (rows != expected) {
    return std::to_string(rows) + " rows for a " + std::to_string(expected) + "-point grid";
  }
  return "";
}

std::string render_csv(const bevr::runner::ScenarioSpec& spec,
                       const std::vector<std::vector<double>>& rows) {
  std::ostringstream csv;
  bevr::runner::CsvSink sink(csv);
  sink.begin(bevr::runner::RunMetadata{}, bevr::runner::scenario_columns(spec));
  for (std::size_t i = 0; i < rows.size(); ++i) sink.row(bevr::runner::ResultRow{i, rows[i]});
  return strip_comments(csv.str());
}

std::uint64_t counter_value(const std::string& name) {
  return bevr::obs::MetricsRegistry::global().snapshot().counter(name);
}

namespace {

std::string layer_of(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('/'));
}

bool is_span(const bevr::obs::TraceEvent& e) {
  return (e.flags & bevr::obs::TraceEvent::kInstant) == 0 && e.name != nullptr;
}

/// Per-layer accounting of a traced session: self time (span minus its
/// direct children on the same thread) and span count per layer, the
/// layer being the span name up to its first '/'.
struct LayerTimes {
  std::map<std::string, double> self_s;
  std::map<std::string, std::uint64_t> spans;
  std::uint64_t total_spans = 0;
};

LayerTimes layer_times(const std::vector<bevr::obs::TraceEvent>& events) {
  // Per thread, in begin order (ties: the longer span encloses), a
  // stack of open spans: each span's direct children on its thread are
  // disjoint, so self time = duration - sum of direct children.
  std::map<std::uint32_t, std::vector<const bevr::obs::TraceEvent*>> by_thread;
  for (const auto& e : events) {
    if (is_span(e)) by_thread[e.tid].push_back(&e);
  }
  LayerTimes out;
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->begin_ns != b->begin_ns ? a->begin_ns < b->begin_ns : a->end_ns > b->end_ns;
    });
    struct Open {
      const bevr::obs::TraceEvent* span;
      std::uint64_t children_ns;
    };
    std::vector<Open> stack;
    const auto close = [&out](const Open& open) {
      const std::uint64_t duration = open.span->end_ns - open.span->begin_ns;
      const std::string layer = layer_of(open.span->name);
      out.self_s[layer] +=
          static_cast<double>(duration - std::min(duration, open.children_ns)) * 1e-9;
      ++out.spans[layer];
      ++out.total_spans;
    };
    for (const auto* span : spans) {
      while (!stack.empty() && stack.back().span->end_ns <= span->begin_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().children_ns += span->end_ns - span->begin_ns;
      stack.push_back(Open{span, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

/// Share of [begin_ns, end_ns) covered by the union of the spans whose
/// names start with one of `layers` (e.g. "kernels/").
double span_coverage(const std::vector<bevr::obs::TraceEvent>& events,
                     const std::vector<std::string>& layers, std::uint64_t begin_ns,
                     std::uint64_t end_ns) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const auto& e : events) {
    if (!is_span(e)) continue;
    const std::string name(e.name);
    const bool counted = std::any_of(layers.begin(), layers.end(), [&](const auto& l) {
      return name.rfind(l, 0) == 0;
    });
    const std::uint64_t b = std::max(e.begin_ns, begin_ns);
    const std::uint64_t f = std::min(e.end_ns, end_ns);
    if (counted && b < f) intervals.emplace_back(b, f);
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = begin_ns;
  for (const auto& [b, f] : intervals) {
    if (f <= reach) continue;
    covered += f - std::max(b, reach);
    reach = f;
  }
  return end_ns > begin_ns ? static_cast<double>(covered) / static_cast<double>(end_ns - begin_ns)
                           : 0.0;
}

void print_layers(const char* title, const bevr::obs::TraceCollector& collector) {
  const LayerTimes layers = layer_times(collector.events());
  std::printf("%s (%llu spans, %llu dropped)\n%-12s %12s %10s\n", title,
              static_cast<unsigned long long>(layers.total_spans),
              static_cast<unsigned long long>(collector.dropped()), "layer", "self_s", "spans");
  for (const auto& [layer, self] : layers.self_s) {
    std::printf("%-12s %12.6f %10llu\n", layer.c_str(), self,
                static_cast<unsigned long long>(layers.spans.at(layer)));
  }
}

void write_trace(const bevr::obs::TraceCollector& collector, const std::string& path,
                 Outcome& out) {
  std::ofstream file(path);
  collector.write_chrome_trace(file);
  out.require(static_cast<bool>(file), "writing " + path);
  std::printf("chrome trace: %s\n", path.c_str());
}

}  // namespace

bevr::obs::TraceCollector& bench_collector() {
  static bevr::obs::TraceCollector collector;
  return collector;
}

double traced_replay(const std::vector<std::string>& layers, const std::function<void()>& replay) {
  bevr::obs::TraceCollector& collector = bench_collector();
  collector.set_enabled(true);
  const std::uint64_t begin_ns = bevr::obs::now_ns();
  replay();
  const std::uint64_t end_ns = bevr::obs::now_ns();
  collector.set_enabled(false);
  const double coverage = span_coverage(collector.events(), layers, begin_ns, end_ns);
  std::printf("layer replay %.4f s, span coverage %.4f\n",
              static_cast<double>(end_ns - begin_ns) * 1e-9, coverage);
  return coverage;
}

void report_trace(const std::string& trace_out, const std::string& path, double traced_units,
                  Outcome& out) {
  bevr::obs::TraceCollector& program = bevr::obs::TraceCollector::global();
  std::printf("== %s\n", path.c_str());
  print_layers("program spans", program);
  print_layers("benchmark spans", bench_collector());
  const auto recorded = static_cast<double>(program.events().size() + program.dropped());
  out.metric("obs." + path + ".spans", recorded / traced_units, "count");
  if (!trace_out.empty()) {
    const auto dot = trace_out.rfind(".json");
    const std::size_t at = dot == std::string::npos ? trace_out.size() : dot;
    std::string named = trace_out;
    write_trace(program, named.insert(at, "." + path), out);
    named = trace_out;
    write_trace(bench_collector(), named.insert(at, "." + path + ".layers"), out);
  }
  program.clear();
  bench_collector().clear();
}

void setup_done(const Options& options, Outcome& out) {
  const double setup_s = seconds_since(options.spawn_ns);
  if (!options.trace) out.metric("setup_s", setup_s, "s");
  if (!options.setup_only) print_host_probe("start");
}

}  // namespace perfbench
