// bench_obs: the cost of looking.
//
// Measures the obs layer's hot paths with hand-rolled ns/op loops —
//  * counter increment and histogram observe, enabled and disabled;
//  * trace span enter/exit, enabled and disabled;
//  * flight-recorder record (always on — there is no disable switch),
//    rolling-window observe and SLO record;
//  * a no-op baseline loop for the noise floor —
// then times a welfare sweep end to end with observability fully on
// vs fully off. Three contracts are asserted (nonzero exit on
// failure, so ctest and the CI gate catch a regression):
//  1. the disabled path is within noise of the no-op baseline;
//  2. the always-on paths (flight record, window observe, SLO record)
//     stay under a generous absolute ns/op ceiling;
//  3. full instrumentation costs < 5% on the sweep in full mode,
//     measured as the median ratio over interleaved off/on sweep pairs;
//     --smoke loosens the bound to 25% so loaded CI machines running
//     tiny workloads do not flake.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bevr/bench/bench_util.h"
#include "bevr/bench/registry.h"
#include "bevr/bench/stats.h"
#include "bevr/obs/flight_recorder.h"
#include "bevr/obs/metrics.h"
#include "bevr/obs/slo.h"
#include "bevr/obs/trace.h"
#include "bevr/obs/window.h"
#include "bevr/runner/runner.h"
#include "bevr/runner/thread_pool.h"

namespace {

using namespace bevr;
using Clock = std::chrono::steady_clock;

/// Keep `value` alive past the optimizer without a memory round-trip.
template <typename T>
inline void keep(T& value) {
  __asm__ __volatile__("" : "+r"(value));
}

/// ns per op of `body(i)` over `ops` iterations, best of `repeats`.
/// Each instantiation is its own 64-byte-aligned function, so where a
/// timed loop falls relative to cache-line and branch-predictor
/// boundaries is fixed by its own code, not by whatever code precedes
/// it in this file: a tight loop's speed can shift by a nanosecond
/// with that placement, which is the size of the bounds below.
template <typename Body>
[[gnu::noinline, gnu::aligned(64)]] double measure_ns(std::uint64_t ops,
                                                      int repeats,
                                                      Body&& body) {
  double best = 1e30;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) body(i);
    const double elapsed =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count();
    best = std::min(best, elapsed / static_cast<double>(ops));
  }
  return best;
}

runner::ScenarioSpec welfare_scenario() {
  runner::ScenarioSpec spec;
  spec.name = "bench_obs_welfare";
  spec.model = runner::ModelKind::kWelfare;
  spec.load = runner::LoadFamily::kPoisson;
  spec.util = runner::UtilityFamily::kRigid;
  spec.util_param = 1.0;
  spec.grid = runner::GridSpec{0.01, 0.4, 9, true};
  return spec;
}

/// The sweeps' two workers, started once per process. A pool per sweep
/// would start two threads per sweep, and each new thread keeps its own
/// glibc arena and, in the traced arm, its own trace buffer.
runner::ThreadPool& sweep_pool() {
  static runner::ThreadPool pool(2);
  return pool;
}

/// One full welfare sweep with a fresh cache; wall seconds.
double sweep_seconds() {
  const runner::ScenarioSpec spec = welfare_scenario();
  runner::VectorSink sink;
  runner::RunOptions options;
  options.pool = &sweep_pool();
  const auto start = Clock::now();
  (void)runner::run_scenario(spec, options, sink);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Full instrumentation on or off: metrics are on by default, tracing
/// is the opt-in extra.
void set_instrumented(bool on) {
  obs::MetricsRegistry::global().set_enabled(on);
  obs::TraceCollector::global().set_enabled(on);
}

struct SweepOverhead {
  double off_seconds;  ///< median uninstrumented sweep
  double on_seconds;   ///< median instrumented sweep
  double ratio;        ///< median of the per-pair on/off ratios
};

/// Interleaved A/B: `pairs` back-to-back (off, on) sweep pairs whose
/// order alternates, gated on the median of the paired ratios. A sweep
/// takes a millisecond or two, so a burst of host load can slow a
/// whole block of reps; pairing puts both arms inside the same burst,
/// and the median discards the pairs a burst split.
SweepOverhead sweep_overhead(int pairs) {
  const bool metrics_were_enabled = obs::MetricsRegistry::global().enabled();
  std::vector<double> off;
  std::vector<double> on;
  std::vector<double> ratios;
  // One unmeasured sweep per arm first: the first sweep of a process
  // pays its one-time set-up and would skew whichever arm ran it.
  for (const bool instrumented : {false, true}) {
    set_instrumented(instrumented);
    (void)sweep_seconds();
  }
  for (int pair = 0; pair < pairs; ++pair) {
    double seconds[2] = {0.0, 0.0};  // [off, on]
    const bool on_first = pair % 2 == 1;
    for (const bool instrumented : {on_first, !on_first}) {
      set_instrumented(instrumented);
      seconds[instrumented ? 1 : 0] = sweep_seconds();
    }
    off.push_back(seconds[0]);
    on.push_back(seconds[1]);
    ratios.push_back(seconds[0] > 0.0 ? seconds[1] / seconds[0] : 1.0);
  }
  set_instrumented(false);
  obs::MetricsRegistry::global().set_enabled(metrics_were_enabled);
  return {bench::median(off), bench::median(on), bench::median(ratios)};
}

struct Result {
  std::string name;
  double ns_per_op;
};

}  // namespace

BEVR_BENCHMARK(obs, "obs hot-path ns/op + sweep overhead contracts") {
  bench::print_header("bench_obs: instrumentation overhead");
  std::vector<Result> results;

  const std::uint64_t ops = ctx.pick(std::uint64_t{4'000'000},
                                     std::uint64_t{200'000});
  // Best of 3 in both modes: a smoke loop lasts a fraction of a
  // millisecond, so a single repeat is at the mercy of one preemption.
  const int repeats = 3;

  obs::MetricsRegistry registry;
  const obs::Counter counter = registry.counter("bench/counter");
  const obs::Histogram histogram = registry.histogram(
      "bench/hist", obs::HistogramSpec::exponential(1.0, 2.0, 16));
  obs::TraceCollector collector;

  // Noise floor: the same loop doing only induction-variable work.
  const double baseline =
      measure_ns(ops, repeats, [](std::uint64_t i) { keep(i); });
  results.push_back({"noop_baseline", baseline});

  registry.set_enabled(true);
  results.push_back({"counter_add_enabled",
                     measure_ns(ops, repeats, [&](std::uint64_t i) {
                       counter.add(1);
                       keep(i);
                     })});
  results.push_back({"histogram_observe_enabled",
                     measure_ns(ops, repeats, [&](std::uint64_t i) {
                       histogram.observe(static_cast<double>(i & 1023));
                       keep(i);
                     })});
  registry.set_enabled(false);
  const double counter_disabled =
      measure_ns(ops, repeats, [&](std::uint64_t i) {
        counter.add(1);
        keep(i);
      });
  results.push_back({"counter_add_disabled", counter_disabled});
  const double observe_disabled =
      measure_ns(ops, repeats, [&](std::uint64_t i) {
        histogram.observe(static_cast<double>(i & 1023));
        keep(i);
      });
  results.push_back({"histogram_observe_disabled", observe_disabled});

  collector.set_enabled(true);
  results.push_back({"trace_span_enabled",
                     measure_ns(ops, repeats, [&](std::uint64_t i) {
                       obs::TraceSpan span("bench/span", collector);
                       keep(i);
                     })});
  collector.set_enabled(false);
  const double span_disabled =
      measure_ns(ops, repeats, [&](std::uint64_t i) {
        obs::TraceSpan span("bench/span", collector);
        keep(i);
      });
  results.push_back({"trace_span_disabled", span_disabled});

  // Always-on diagnosis paths: the flight recorder has no disable
  // switch by design, and the windows/SLO trackers sit on the service
  // respond path. Each is a handful of relaxed atomic stores.
  obs::FlightRecorder flight(/*ring_capacity=*/4096);
  const double flight_record =
      measure_ns(ops, repeats, [&](std::uint64_t i) {
        flight.record(obs::FlightCode::kMark, i, "bench",
                      static_cast<double>(i & 1023));
        keep(i);
      });
  results.push_back({"flight_record", flight_record});

  obs::RollingWindow window(obs::HistogramSpec::latency_us(),
                            /*bucket_ns=*/1'000'000'000ULL,
                            /*bucket_count=*/16);
  const double window_observe =
      measure_ns(ops, repeats, [&](std::uint64_t i) {
        window.observe(static_cast<double>(i & 1023),
                       /*now=*/1'000'000'000ULL + i);
        keep(i);
      });
  results.push_back({"window_observe", window_observe});

  obs::SloTracker slo("bench/slo", 0.99);
  const double slo_record = measure_ns(ops, repeats, [&](std::uint64_t i) {
    slo.record((i & 7) != 0, /*now=*/1'000'000'000ULL + i);
    keep(i);
  });
  results.push_back({"slo_record", slo_record});

  bench::print_columns({"metric", "ns_per_op"});
  for (const Result& result : results) {
    std::printf("%30s %10.2f\n", result.name.c_str(), result.ns_per_op);
  }

  // Contract 1: disabled instrumentation is noise. A relaxed bool load
  // plus an untaken branch should vanish next to the loop itself; allow
  // a couple of nanoseconds of jitter before calling it a regression.
  const double slack_ns = 2.0 + baseline;
  for (const auto& [name, ns] :
       {std::pair<const char*, double>{"counter_add_disabled",
                                       counter_disabled},
        {"histogram_observe_disabled", observe_disabled},
        {"trace_span_disabled", span_disabled}}) {
    if (ns > slack_ns) {
      ctx.fail(std::string(name) + " = " + std::to_string(ns) +
               " ns/op exceeds noise bound " + std::to_string(slack_ns) +
               " ns/op");
    }
  }
  if (ctx.failures().empty()) {
    bench::print_note("disabled paths within noise of the no-op baseline");
  }

  // Contract 2: the always-on paths stay cheap in absolute terms. The
  // ceiling is generous (measured values are a few ns) — it exists to
  // catch an accidental lock or allocation on these paths, not drift.
  const double always_on_bound_ns = 200.0 + baseline;
  for (const auto& [name, ns] :
       {std::pair<const char*, double>{"flight_record", flight_record},
        {"window_observe", window_observe},
        {"slo_record", slo_record}}) {
    if (ns > always_on_bound_ns) {
      ctx.fail(std::string(name) + " = " + std::to_string(ns) +
               " ns/op exceeds always-on bound " +
               std::to_string(always_on_bound_ns) + " ns/op");
    }
  }

  // Contract 3: full instrumentation on a real sweep, metrics and
  // tracing both on, against both off.
  const int pairs = ctx.pick(101, 15);
  const SweepOverhead sweep = sweep_overhead(pairs);
  // The budget: <= 5% fully instrumented in full mode. Smoke mode
  // takes few pairs, so its bound loosens to 25%.
  const double ratio_bound = ctx.pick(1.05, 1.25);
  std::printf("\nwelfare sweep (%d interleaved pairs): obs off %.4fs, "
              "obs on %.4fs, median paired ratio %.3f (bound < %.2f)\n",
              pairs, sweep.off_seconds, sweep.on_seconds, sweep.ratio,
              ratio_bound);
  if (sweep.ratio >= ratio_bound) {
    ctx.fail("instrumented sweep ratio " + std::to_string(sweep.ratio) +
             " >= " + std::to_string(ratio_bound));
  }
  // 10 hot-path measurements + 2 sweeps per pair.
  ctx.set_items(10 * ops + 2 * static_cast<std::uint64_t>(pairs));
}
