#include "bevr/admission/engine.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "bevr/obs/flight_recorder.h"
#include "bevr/obs/metrics.h"
#include "bevr/obs/trace.h"
#include "bevr/sim/event_queue.h"
#include "bevr/sim/metrics.h"

namespace bevr::admission {

namespace {

bool submits_before(const FlowRequest& a, const FlowRequest& b) {
  return a.submit < b.submit;
}

/// Mutable run state shared by the event closures.
struct Runner {
  AdmissionPolicy& policy;
  const utility::UtilityFunction& pi;
  const EngineConfig& config;

  sim::EventQueue queue{};

  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t counteroffers_accepted = 0;
  std::uint64_t active = 0;
  std::uint64_t peak_active = 0;
  std::uint64_t next_flow = 0;          ///< trace-order flow index
  std::uint64_t seen_expirations = 0;   ///< calendar sweep watermark
  sim::RunningStats utility{};
  sim::RunningStats allocated_rate{};

  [[nodiscard]] bool scored(const FlowRequest& req) const {
    return req.submit >= config.warmup;
  }

  /// Calendar occupancy (committed/capacity at sim-now) when the
  /// policy has a calendar; fraction of flows in service is the best
  /// stand-in otherwise. Purely observational.
  [[nodiscard]] double occupancy() const {
    if (const CapacityCalendar* cal = policy.calendar()) {
      return cal->capacity() > 0.0
                 ? cal->committed_at(queue.now()) / cal->capacity()
                 : 0.0;
    }
    return static_cast<double>(active);
  }

  /// One per-flow decision event, mirrored to the flight recorder
  /// (always on) and the trace collector (when enabled), each carrying
  /// the occupancy the decision saw. The calendar retires expired
  /// reservations in batched sweeps, so expirations surface here as a
  /// delta against the last decision's watermark.
  void record_decision(const char* name, obs::FlightCode code,
                       const obs::TraceContext& trace,
                       std::uint64_t flow_index) {
    const double seen = occupancy();
    obs::FlightRecorder::global().record(code, trace.trace_id, nullptr, seen,
                                         static_cast<double>(flow_index));
    if (const CapacityCalendar* cal = policy.calendar()) {
      const std::uint64_t expirations = cal->expirations();
      if (expirations != seen_expirations) {
        obs::FlightRecorder::global().record(
            obs::FlightCode::kExpireSweep, trace.trace_id, nullptr,
            static_cast<double>(expirations - seen_expirations));
        seen_expirations = expirations;
      }
    }
    obs::TraceCollector& collector = obs::TraceCollector::global();
    if (collector.enabled()) {
      obs::TraceEvent event;
      event.name = name;
      event.begin_ns = obs::now_ns();
      event.end_ns = event.begin_ns;
      event.trace_id = trace.trace_id;
      event.span_id = trace.span_id;
      event.value = seen;
      event.flags = obs::TraceEvent::kInstant | obs::TraceEvent::kHasValue;
      collector.record(event);
    }
  }

  void depart(const FlowRequest& req, const AdmissionPolicy::Decision& d,
              double rate) {
    policy.on_end(req, d, queue.now());
    if (active > 0) --active;
    if (scored(req)) {
      utility.add(pi.value(rate));
      allocated_rate.add(rate);
    }
  }

  void start(const FlowRequest& req, const AdmissionPolicy::Decision& d) {
    const double rate = policy.on_start(req, d);
    ++active;
    peak_active = std::max(peak_active, active);
    queue.schedule(d.start + req.duration,
                   [this, req, d, rate] { depart(req, d, rate); });
  }

  void submit(const FlowRequest& req) {
    const std::uint64_t flow_index = next_flow++;
    const obs::TraceContext trace =
        obs::TraceContext::derive(config.trace_seed, flow_index);
    const auto decision = policy.request(req);
    const bool in_window = scored(req);
    if (in_window) ++offered;
    if (!decision.admitted) {
      record_decision("admission/block", obs::FlightCode::kBlock, trace,
                      flow_index);
      if (in_window) {
        ++blocked;
        utility.add(0.0);  // blocked flows get zero bandwidth
      }
      return;
    }
    record_decision(
        decision.countered ? "admission/counteroffer" : "admission/admit",
        decision.countered ? obs::FlightCode::kCounteroffer
                           : obs::FlightCode::kAdmit,
        trace, flow_index);
    if (in_window) {
      ++admitted;
      if (decision.countered) ++counteroffers_accepted;
    }
    const auto start_token = queue.schedule(
        decision.start, [this, req, decision] { start(req, decision); });
    if (req.cancel < decision.start) {
      // Pre-start retraction: the start event must never fire — this
      // is the event queue's cancellation path doing real work.
      queue.schedule(std::max(req.cancel, queue.now()),
                     [this, req, decision, start_token, trace, flow_index] {
                       queue.cancel(start_token);
                       policy.on_cancel(req, decision, queue.now());
                       record_decision("admission/cancel",
                                       obs::FlightCode::kCancel, trace,
                                       flow_index);
                       if (scored(req)) ++cancelled;
                     });
    }
  }
};

}  // namespace

AdmissionReport run_admission(const ArrivalTrace& trace,
                              AdmissionPolicy& policy,
                              const utility::UtilityFunction& pi,
                              const EngineConfig& config) {
  if (!(config.warmup >= 0.0)) {
    throw std::invalid_argument("run_admission: warmup must be >= 0");
  }
  // Validate the whole trace before replaying any of it. Every time
  // must be finite except `cancel`, where +inf means "never cancels".
  for (const FlowRequest& req : trace.requests) {
    if (!std::isfinite(req.submit) || !std::isfinite(req.start) ||
        !std::isfinite(req.duration) || !std::isfinite(req.rate) ||
        std::isnan(req.cancel) || req.submit < 0.0 ||
        req.start < req.submit || !(req.duration > 0.0) ||
        !(req.rate > 0.0)) {
      throw std::invalid_argument("run_admission: malformed trace request");
    }
  }
  // Stream the submits in stable submit order (a hand-built trace may
  // be unsorted). Each submit runs after every event due strictly
  // before it and before every event queued for its own instant.
  Runner runner{policy, pi, config};
  std::vector<FlowRequest> sorted;
  std::span<const FlowRequest> requests = trace.requests;
  if (!std::is_sorted(requests.begin(), requests.end(), submits_before)) {
    sorted.assign(requests.begin(), requests.end());
    std::stable_sort(sorted.begin(), sorted.end(), submits_before);
    requests = sorted;
  }
  for (const FlowRequest& req : requests) {
    while (runner.queue.step_before(req.submit)) {
    }
    runner.queue.advance_to(req.submit);
    runner.submit(req);
  }
  while (runner.queue.step()) {
  }

  AdmissionReport report;
  report.offered = runner.offered;
  report.admitted = runner.admitted;
  report.blocked = runner.blocked;
  report.cancelled = runner.cancelled;
  report.counteroffers_accepted = runner.counteroffers_accepted;
  if (const CapacityCalendar* cal = policy.calendar()) {
    report.calendar_offers = cal->offers();
    report.counteroffers = cal->counteroffers();
    report.expirations = cal->expirations();
  }
  report.mean_utility = runner.utility.mean();
  const std::uint64_t decided = runner.offered - runner.cancelled;
  report.blocking_probability =
      decided > 0
          ? static_cast<double>(runner.blocked) / static_cast<double>(decided)
          : 0.0;
  report.mean_allocated_rate = runner.allocated_rate.mean();
  report.peak_active = runner.peak_active;

  // Counters batch locally during the event loop and flush here once,
  // mirroring the flow simulator's instrumentation pattern.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (config.flush_obs && registry.enabled()) {
    registry.counter("admission/offered").add(report.offered);
    registry.counter("admission/admitted").add(report.admitted);
    registry.counter("admission/blocked").add(report.blocked);
    registry.counter("admission/cancelled").add(report.cancelled);
    registry.counter("admission/counteroffers").add(report.counteroffers);
    registry.counter("admission/counteroffers_accepted")
        .add(report.counteroffers_accepted);
    registry.counter("admission/expirations").add(report.expirations);
  }
  return report;
}

}  // namespace bevr::admission
