#include "bevr/net2/engine.h"

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

namespace bevr::net2 {

namespace {

bool submits_before(const NetFlowRequest& a, const NetFlowRequest& b) {
  return a.submit < b.submit;
}

/// Mutable run state shared by the event closures (the single-link
/// admission Runner's shape, minus book-ahead and cancellation, which
/// do not exist on the network layer).
struct Runner {
  NetPolicy& policy;
  const utility::UtilityFunction& pi;
  const NetEngineConfig& config;

  sim::EventQueue queue{};

  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t alternate_routed = 0;
  std::uint64_t active = 0;
  std::uint64_t peak_active = 0;
  std::uint64_t next_flow = 0;  ///< trace-order call index
  sim::RunningStats utility{};
  sim::RunningStats allocated_rate{};

  [[nodiscard]] bool scored(const NetFlowRequest& req) const {
    return req.submit >= config.warmup;
  }

  /// One per-call route decision event, mirrored to the flight
  /// recorder (always on) and the trace collector (when enabled),
  /// carrying the live-call count the decision saw.
  void record_decision(const char* name, obs::FlightCode code,
                       const obs::TraceContext& trace,
                       std::uint64_t flow_index) {
    const double seen = static_cast<double>(active);
    obs::FlightRecorder::global().record(code, trace.trace_id, nullptr, seen,
                                         static_cast<double>(flow_index));
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

  void depart(const NetFlowRequest& req, const NetPolicy::Decision& d,
              double rate) {
    policy.on_end(req, d);
    if (active > 0) --active;
    if (scored(req)) {
      utility.add(pi.value(rate));
      allocated_rate.add(rate);
    }
  }

  void start(const NetFlowRequest& req, const NetPolicy::Decision& d) {
    const double rate = policy.on_start(req, d);
    ++active;
    peak_active = std::max(peak_active, active);
    queue.schedule(req.submit + req.duration,
                   [this, req, d, rate] { depart(req, d, rate); });
  }

  void submit(const NetFlowRequest& req) {
    const std::uint64_t flow_index = next_flow++;
    const obs::TraceContext trace =
        obs::TraceContext::derive(config.trace_seed, flow_index);
    const auto decision = policy.request(req);
    const bool in_window = scored(req);
    if (in_window) ++offered;
    if (!decision.admitted) {
      record_decision("net2/block", obs::FlightCode::kBlock, trace,
                      flow_index);
      if (in_window) {
        ++blocked;
        utility.add(0.0);  // blocked calls get zero bandwidth
      }
      return;
    }
    record_decision(
        decision.alternate ? "net2/route_alternate" : "net2/route_direct",
        decision.alternate ? obs::FlightCode::kRouteAlternate
                           : obs::FlightCode::kAdmit,
        trace, flow_index);
    if (in_window) {
      ++admitted;
      if (decision.alternate) ++alternate_routed;
    }
    queue.schedule(req.submit,
                   [this, req, decision] { start(req, decision); });
  }
};

}  // namespace

NetReport run_network(const NetTrace& trace, NetPolicy& policy,
                      const utility::UtilityFunction& pi,
                      const NetEngineConfig& config) {
  if (!(config.warmup >= 0.0)) {
    throw std::invalid_argument("run_network: warmup must be >= 0");
  }
  // Validate the whole trace before replaying any of it.
  for (const NetFlowRequest& req : trace.requests) {
    if (!std::isfinite(req.submit) || !std::isfinite(req.duration) ||
        !std::isfinite(req.rate) || req.submit < 0.0 ||
        !(req.duration > 0.0) || !(req.rate > 0.0)) {
      throw std::invalid_argument("run_network: malformed trace request");
    }
  }
  // The invariant-auditing sink: with auditing on, every event — each
  // submit included — must leave the ledger inside its capacity
  // envelope.
  const auto audit = [&] {
    if (config.audit) policy.ledger().audit();
  };
  // Stream the submits in stable submit order (a hand-built trace may
  // be unsorted). Each submit runs after every event due strictly
  // before it and before every event queued for its own instant.
  Runner runner{policy, pi, config};
  std::vector<NetFlowRequest> sorted;
  std::span<const NetFlowRequest> requests = trace.requests;
  if (!std::is_sorted(requests.begin(), requests.end(), submits_before)) {
    sorted.assign(requests.begin(), requests.end());
    std::stable_sort(sorted.begin(), sorted.end(), submits_before);
    requests = sorted;
  }
  for (const NetFlowRequest& req : requests) {
    while (runner.queue.step_before(req.submit)) audit();
    runner.queue.advance_to(req.submit);
    runner.submit(req);
    audit();
  }
  while (runner.queue.step()) audit();

  NetReport report;
  report.offered = runner.offered;
  report.admitted = runner.admitted;
  report.blocked = runner.blocked;
  report.alternate_routed = runner.alternate_routed;
  report.mean_utility = runner.utility.mean();
  report.blocking_probability =
      runner.offered > 0 ? static_cast<double>(runner.blocked) /
                               static_cast<double>(runner.offered)
                         : 0.0;
  report.mean_allocated_rate = runner.allocated_rate.mean();
  report.peak_active = runner.peak_active;
  const LinkLedger& ledger = policy.ledger();
  for (std::size_t i = 0; i < ledger.link_count(); ++i) {
    report.peak_link_count =
        std::max(report.peak_link_count,
                 ledger.peak_count(static_cast<LinkId>(i)));
  }

  // Counters batch locally during the event loop and flush here once,
  // mirroring the admission engine's instrumentation pattern.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (config.flush_obs && registry.enabled()) {
    registry.counter("net2/offered").add(report.offered);
    registry.counter("net2/admitted").add(report.admitted);
    registry.counter("net2/blocked").add(report.blocked);
    registry.counter("net2/alternate_routed").add(report.alternate_routed);
    registry.gauge("net2/peak_link_count")
        .set(static_cast<double>(report.peak_link_count));
  }
  return report;
}

}  // namespace bevr::net2
