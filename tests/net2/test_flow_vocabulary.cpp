// The observable vocabulary of every flow-policy family, pinned: the
// decision-event names the trace collector records, the flight codes
// the flight recorder records (each decision's carrying the flows in
// service it saw), and the admission/*, net2/* and net/* counters
// (plus the net2 peak-link gauge) a run flushes. Traced runs and the
// benchmark's traced flows pass count events by these names, so a
// rename or a lost event is a behaviour change.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "bevr/admission/engine.h"
#include "bevr/admission/policy.h"
#include "bevr/admission/trace.h"
#include "bevr/net/admission.h"
#include "bevr/net/rsvp_policy.h"
#include "bevr/net2/engine.h"
#include "bevr/net2/policy.h"
#include "bevr/net2/topology.h"
#include "bevr/net2/trace.h"
#include "bevr/obs/flight_recorder.h"
#include "bevr/obs/metrics.h"
#include "bevr/obs/trace.h"
#include "bevr/obs/trace_context.h"
#include "bevr/sim/rng.h"
#include "bevr/utility/utility.h"

namespace bevr {
namespace {

using Counts = std::map<std::string, std::uint64_t>;

/// What one traced run left behind for its own flows.
struct Observed {
  Counts events;    ///< trace-collector event name → count
  Counts codes;     ///< flight-code name → count
  Counts counters;  ///< counter name (with `prefix`) → increase
  obs::MetricsSnapshot after;
};

/// Runs `run` with metrics and tracing on, and keeps the events and
/// flight records whose trace id belongs to one of the first `flows`
/// flows of `trace_seed`.
template <typename Run>
Observed observe(std::uint64_t trace_seed, std::size_t flows,
                 const std::string& prefix, Run&& run) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::TraceCollector& collector = obs::TraceCollector::global();
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  const bool metrics_were_enabled = registry.enabled();
  registry.set_enabled(true);
  collector.clear();
  flight.clear();
  const obs::MetricsSnapshot before = registry.snapshot();
  collector.set_enabled(true);
  run();
  collector.set_enabled(false);
  Observed seen;
  seen.after = registry.snapshot();
  registry.set_enabled(metrics_were_enabled);

  std::set<std::uint64_t> ids;
  for (std::size_t i = 0; i < flows; ++i) {
    ids.insert(obs::TraceContext::derive(trace_seed, i).trace_id);
  }
  for (const obs::TraceEvent& event : collector.events()) {
    if (ids.count(event.trace_id) != 0) ++seen.events[event.name];
  }
  for (const obs::FlightRecord& record : flight.records()) {
    if (ids.count(record.trace_id) != 0) {
      ++seen.codes[obs::flight_code_name(record.code)];
    }
  }
  for (const auto& [name, value] : seen.after.counters) {
    if (name.rfind(prefix, 0) == 0) {
      seen.counters[name] = value - before.counter(name);
    }
  }
  collector.clear();
  return seen;
}

admission::FlowRequest flow(double submit, double start, double duration,
                            double rate) {
  admission::FlowRequest req;
  req.submit = submit;
  req.start = start;
  req.duration = duration;
  req.rate = rate;
  return req;
}

TEST(FlowVocabulary, DecisionEventsFlightCodesAndCountersArePinned) {
  // Single link: capacity 2, advance booking that accepts a halved rate.
  admission::PolicyConfig config;
  config.capacity = 2.0;
  config.pi = std::make_shared<utility::Rigid>(1.0);
  config.tick = 0.25;
  config.min_rate_fraction = 0.5;
  auto policy = admission::make_policy(
      admission::PolicyKind::kAdvanceBooking, config);
  admission::ArrivalTrace trace;
  trace.horizon = 10.0;
  trace.requests = {
      flow(0.0, 0.0, 4.0, 1.0),  // admitted as asked
      flow(0.5, 0.5, 4.0, 2.0),  // only 1 free: takes the counteroffer
      flow(1.0, 1.0, 1.0, 1.0),  // link full, nothing to offer: blocked
      flow(1.5, 6.0, 1.0, 1.0),  // booked ahead ...
      // At the first flow's departure instant: the submit's expiry
      // sweep retires that booking before the departure releases it.
      flow(4.0, 4.0, 0.5, 1.0),
  };
  trace.requests[3].cancel = 3.0;  // ... and retracted before its start
  admission::EngineConfig engine;
  engine.trace_seed = 17;
  admission::AdmissionReport report;
  const Observed single = observe(17, trace.requests.size(), "admission/", [&] {
    report = admission::run_admission(trace, *policy, *config.pi, engine);
  });
  EXPECT_EQ(single.events, (Counts{{"admission/admit", 3},
                                   {"admission/block", 1},
                                   {"admission/cancel", 1},
                                   {"admission/counteroffer", 1}}));
  EXPECT_EQ(single.codes, (Counts{{"ADMIT", 3},
                                  {"BLOCK", 1},
                                  {"CANCEL", 1},
                                  {"COUNTEROFFER", 1},
                                  {"EXPIRE_SWEEP", 1}}));
  EXPECT_EQ(single.counters, (Counts{{"admission/admitted", 4},
                                     {"admission/blocked", 1},
                                     {"admission/cancelled", 1},
                                     {"admission/counteroffers", 2},
                                     {"admission/counteroffers_accepted", 1},
                                     {"admission/expirations", 1},
                                     {"admission/offered", 5}}));
  EXPECT_EQ(report.offered, 5u);
  EXPECT_EQ(report.counteroffers_accepted, 1u);

  // Network: DAR on a three-node mesh of unit links, hot enough that
  // calls route direct, overflow onto an alternate, and block.
  const net2::Topology mesh =
      net2::build_topology({net2::TopologyKind::kFullMesh, 3, 1.0, {}});
  net2::NetTraceSpec spec;
  spec.pair_arrival_rate = 2.0;
  spec.horizon = 3.0;
  const net2::NetTrace calls =
      net2::generate_net_trace(mesh, spec, sim::Rng(5));
  net2::NetPolicyConfig net_config;
  net_config.pi = config.pi;
  auto dar = net2::make_net_policy(net2::NetPolicyKind::kDar, mesh, net_config);
  net2::NetEngineConfig net_engine;
  net_engine.trace_seed = 23;
  net2::NetReport net_report;
  const Observed network = observe(23, calls.requests.size(), "net2/", [&] {
    net_report = net2::run_network(calls, *dar, *config.pi, net_engine);
  });
  EXPECT_EQ(network.events, (Counts{{"net2/block", 6},
                                    {"net2/route_alternate", 3},
                                    {"net2/route_direct", 6}}));
  EXPECT_EQ(network.codes,
            (Counts{{"ADMIT", 6}, {"BLOCK", 6}, {"ROUTE_ALT", 3}}));
  EXPECT_EQ(network.counters, (Counts{{"net2/admitted", 9},
                                      {"net2/alternate_routed", 3},
                                      {"net2/blocked", 6},
                                      {"net2/offered", 15}}));
  EXPECT_EQ(network.after.gauge("net2/peak_link_count"), 1.0);
  EXPECT_EQ(net_report.offered, calls.requests.size());
}

TEST(FlowVocabulary, RsvpReservationNamesArePinned) {
  // RSVP on a two-hop line of capacity 2, every call from node 0 to 2.
  auto line = std::make_shared<net2::Topology>();
  line->add_link(0, 1, 2.0);
  line->add_link(1, 2, 2.0);
  net::RsvpPolicy policy(line,
                         std::make_shared<net::ParameterBasedAdmission>(1.0));
  admission::ArrivalTrace trace;
  trace.horizon = 10.0;
  trace.requests = {
      flow(0.0, 0.0, 4.0, 1.0),  // reserved
      flow(0.5, 0.5, 4.0, 1.0),  // reserved: the line is now full
      flow(1.0, 1.0, 1.0, 1.0),  // refused at the first hop: blocked
      flow(5.0, 5.0, 1.0, 2.0),  // both have departed: reserved
  };
  for (admission::FlowRequest& req : trace.requests) req.dst = 2;
  admission::EngineConfig engine;
  engine.trace_seed = 31;
  admission::FlowReport report;
  const Observed rsvp = observe(31, trace.requests.size(), "net/", [&] {
    report = net::run_reservations(trace, policy, utility::Rigid(1.0), engine);
  });
  EXPECT_EQ(rsvp.events, (Counts{{"net/block", 1}, {"net/reserve", 3}}));
  EXPECT_EQ(rsvp.codes, (Counts{{"ADMIT", 3}, {"BLOCK", 1}}));
  // The run flushes the first two; the agent counts the others live.
  EXPECT_EQ(rsvp.counters, (Counts{{"net/flows/attempted", 4},
                                   {"net/flows/blocked", 1},
                                   {"net/reservations/denied", 1},
                                   {"net/reservations/granted", 3}}));
  EXPECT_EQ(report.admitted, 3u);
  EXPECT_EQ(policy.peak_reserved(), 2.0);
}

/// The flight-recorder `a` of every ADMIT record `run` leaves for the
/// first `flows` flows of `trace_seed`, keyed by flow index (`b`).
template <typename Run>
std::map<std::uint64_t, double> admit_payloads(std::uint64_t trace_seed,
                                               std::size_t flows, Run&& run) {
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  flight.clear();
  run();
  std::set<std::uint64_t> ids;
  for (std::size_t i = 0; i < flows; ++i) {
    ids.insert(obs::TraceContext::derive(trace_seed, i).trace_id);
  }
  std::map<std::uint64_t, double> payloads;
  for (const obs::FlightRecord& record : flight.records()) {
    if (record.code == obs::FlightCode::kAdmit &&
        ids.count(record.trace_id) != 0) {
      payloads[static_cast<std::uint64_t>(record.b)] = record.a;
    }
  }
  return payloads;
}

// A decision's `a` is the count of flows in service it saw, whatever
// the family: advance booking used to record its calendar's
// committed/capacity instead (0.25 0.5 0.75 1 here).
TEST(FlowVocabulary, AdmitRecordsCarryFlowsInServiceInEveryPolicy) {
  admission::PolicyConfig config;
  config.capacity = 4.0;
  config.pi = std::make_shared<utility::Rigid>(1.0);
  admission::ArrivalTrace trace;
  trace.horizon = 20.0;
  for (int i = 0; i < 5; ++i) {
    const double t = static_cast<double>(i);
    trace.requests.push_back(flow(t, t, 10.0, 1.0));
  }
  admission::EngineConfig engine;
  engine.trace_seed = 29;
  const auto replay = [&](admission::PolicyKind kind) {
    auto policy = admission::make_policy(kind, config);
    return admit_payloads(29, trace.requests.size(), [&] {
      (void)admission::run_admission(trace, *policy, *config.pi, engine);
    });
  };
  const auto best_effort = replay(admission::PolicyKind::kBestEffort);
  const auto advance = replay(admission::PolicyKind::kAdvanceBooking);
  EXPECT_EQ(best_effort, (std::map<std::uint64_t, double>{
                             {0, 0.0}, {1, 1.0}, {2, 2.0}, {3, 3.0},
                             {4, 4.0}}));
  // The calendar is full for the fifth flow, which it blocks.
  EXPECT_EQ(advance, (std::map<std::uint64_t, double>{
                         {0, 0.0}, {1, 1.0}, {2, 2.0}, {3, 3.0}}));
}

}  // namespace
}  // namespace bevr
