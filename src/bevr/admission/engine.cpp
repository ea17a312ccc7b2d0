#include "bevr/admission/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "bevr/obs/metrics.h"
#include "bevr/obs/trace.h"
#include "bevr/sim/event_queue.h"
#include "bevr/sim/metrics.h"

namespace bevr::admission {

namespace {

using Decision = FlowPolicy::Decision;

bool submits_before(const FlowRequest& a, const FlowRequest& b) {
  return a.submit < b.submit;
}

/// Mutable run state shared by the event closures. Closures hold a
/// reference to their request, which lives in the replayed span until
/// the run returns.
struct Runner {
  FlowPolicy& policy;
  const utility::UtilityFunction& pi;
  const EngineConfig& config;
  const FlowNames& names;
  const CapacityCalendar* calendar;

  sim::EventQueue queue{};

  FlowReport report{};
  std::uint64_t active = 0;
  std::uint64_t next_flow = 0;          ///< trace-order flow index
  std::uint64_t seen_expirations = 0;   ///< calendar sweep watermark
  sim::RunningStats utility{};
  sim::RunningStats allocated_rate{};

  [[nodiscard]] bool scored(const FlowRequest& req) const {
    return req.submit >= config.warmup;
  }

  /// One per-flow decision event, mirrored to the flight recorder
  /// (always on) and the trace collector (when enabled), each carrying
  /// the count of flows in service the decision saw, in every policy
  /// family. The calendar retires expired reservations in batched
  /// sweeps, so expirations surface here as a delta against the last
  /// decision's watermark.
  void record_decision(const char* name, obs::FlightCode code,
                       const obs::TraceContext& trace,
                       std::uint64_t flow_index) {
    const auto seen = static_cast<double>(active);
    obs::FlightRecorder::global().record(code, trace.trace_id, nullptr, seen,
                                         static_cast<double>(flow_index));
    if (calendar != nullptr) {
      const std::uint64_t expirations = calendar->expirations();
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

  void depart(const FlowRequest& req, const Decision& d, double rate) {
    policy.on_end(req, d, queue.now());
    if (active > 0) --active;
    if (scored(req)) {
      utility.add(pi.value(rate));
      allocated_rate.add(rate);
    }
  }

  void start(const FlowRequest& req, const Decision& d) {
    const double rate = policy.on_start(req, d);
    ++active;
    report.peak_active = std::max(report.peak_active, active);
    queue.schedule(d.start + req.duration,
                   [this, &req, d, rate] { depart(req, d, rate); });
  }

  void submit(const FlowRequest& req) {
    const std::uint64_t flow_index = next_flow++;
    const obs::TraceContext trace =
        obs::TraceContext::derive(config.trace_seed, flow_index);
    const Decision decision = policy.request(req);
    const bool in_window = scored(req);
    if (in_window) ++report.offered;
    if (!decision.admitted) {
      record_decision(names.block, obs::FlightCode::kBlock, trace,
                      flow_index);
      if (in_window) {
        ++report.blocked;
        utility.add(0.0);  // blocked flows get zero bandwidth
      }
      return;
    }
    record_decision(decision.rerouted ? names.reroute : names.admit,
                    decision.rerouted ? names.reroute_code : names.admit_code,
                    trace, flow_index);
    if (in_window) {
      ++report.admitted;
      if (decision.rerouted) ++report.rerouted;
    }
    const auto start_token = queue.schedule(
        decision.start, [this, &req, decision] { start(req, decision); });
    if (req.cancel < decision.start) {
      // Pre-start retraction: the start event must never fire — this
      // is the event queue's cancellation path doing real work.
      queue.schedule(std::max(req.cancel, queue.now()),
                     [this, &req, decision, start_token, trace, flow_index] {
                       queue.cancel(start_token);
                       policy.on_cancel(req, decision, queue.now());
                       record_decision(names.cancel, obs::FlightCode::kCancel,
                                       trace, flow_index);
                       if (scored(req)) ++report.cancelled;
                     });
    }
  }
};

}  // namespace

FlowReport run_flows(const ArrivalTrace& trace, FlowPolicy& policy,
                     const utility::UtilityFunction& pi,
                     const EngineConfig& config, const FlowNames& names,
                     const FlowProbes& probes) {
  if (!(config.warmup >= 0.0)) {
    throw std::invalid_argument("run_flows: warmup must be >= 0");
  }
  // Validate the whole trace before replaying any of it. Every time
  // must be finite except `cancel`, where +inf means "never cancels".
  for (const FlowRequest& req : trace.requests) {
    if (!std::isfinite(req.submit) || !std::isfinite(req.start) ||
        !std::isfinite(req.duration) || !std::isfinite(req.rate) ||
        std::isnan(req.cancel) || req.submit < 0.0 ||
        req.start < req.submit || !(req.duration > 0.0) ||
        !(req.rate > 0.0)) {
      throw std::invalid_argument("run_flows: malformed trace request");
    }
  }
  // The invariant-auditing sink: with auditing on, every event — each
  // submit included — must leave the family's bookkeeping consistent.
  const auto audit = [&] {
    if (config.audit && probes.audit) probes.audit();
  };
  // Stream the submits in stable submit order (a hand-built trace may
  // be unsorted). Each submit runs after every event due strictly
  // before it and before every event queued for its own instant.
  std::vector<FlowRequest> sorted;
  std::span<const FlowRequest> requests = trace.requests;
  if (!std::is_sorted(requests.begin(), requests.end(), submits_before)) {
    sorted.assign(requests.begin(), requests.end());
    std::stable_sort(sorted.begin(), sorted.end(), submits_before);
    requests = sorted;
  }
  Runner runner{policy, pi, config, names, probes.calendar};
  for (const FlowRequest& req : requests) {
    while (runner.queue.step_before(req.submit)) audit();
    runner.queue.advance_to(req.submit);
    runner.submit(req);
    audit();
  }
  while (runner.queue.step()) audit();

  FlowReport report = runner.report;
  if (const CapacityCalendar* cal = probes.calendar) {
    report.calendar_offers = cal->offers();
    report.counteroffers = cal->counteroffers();
    report.expirations = cal->expirations();
  }
  report.mean_utility = runner.utility.mean();
  const std::uint64_t decided = report.offered - report.cancelled;
  report.blocking_probability =
      decided > 0
          ? static_cast<double>(report.blocked) / static_cast<double>(decided)
          : 0.0;
  report.mean_allocated_rate = runner.allocated_rate.mean();

  // Counters batch locally during the event loop and flush here once,
  // mirroring the flow simulator's instrumentation pattern.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (config.flush_obs && registry.enabled()) {
    for (const FlowCounter& counter : names.counters) {
      registry.counter(counter.name).add(report.*counter.value);
    }
  }
  return report;
}

AdmissionReport run_admission(const ArrivalTrace& trace,
                              AdmissionPolicy& policy,
                              const utility::UtilityFunction& pi,
                              const EngineConfig& config) {
  static constexpr std::array<FlowCounter, 7> kCounters{{
      {"admission/offered", &FlowReport::offered},
      {"admission/admitted", &FlowReport::admitted},
      {"admission/blocked", &FlowReport::blocked},
      {"admission/cancelled", &FlowReport::cancelled},
      {"admission/counteroffers", &FlowReport::counteroffers},
      {"admission/counteroffers_accepted", &FlowReport::rerouted},
      {"admission/expirations", &FlowReport::expirations},
  }};
  static constexpr FlowNames kNames{
      .admit = "admission/admit",
      .admit_code = obs::FlightCode::kAdmit,
      .reroute = "admission/counteroffer",
      .reroute_code = obs::FlightCode::kCounteroffer,
      .block = "admission/block",
      .cancel = "admission/cancel",
      .counters = kCounters};
  const FlowReport r =
      run_flows(trace, policy, pi, config, kNames, {policy.calendar(), {}});
  return {.offered = r.offered,
          .admitted = r.admitted,
          .blocked = r.blocked,
          .cancelled = r.cancelled,
          .counteroffers_accepted = r.rerouted,
          .calendar_offers = r.calendar_offers,
          .counteroffers = r.counteroffers,
          .expirations = r.expirations,
          .mean_utility = r.mean_utility,
          .blocking_probability = r.blocking_probability,
          .mean_allocated_rate = r.mean_allocated_rate,
          .peak_active = r.peak_active};
}

}  // namespace bevr::admission
