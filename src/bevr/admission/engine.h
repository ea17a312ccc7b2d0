// The flow engine: replays one ArrivalTrace against one FlowPolicy on a
// sim::EventQueue and reports aggregate outcomes. Every policy family
// runs on it: `run_admission` (single link, below),
// `net2::run_network` (a topology; a single link is its two-node case)
// and `net::run_reservations` (RSVP signalling) are thin adapters that
// differ only in the names they record under.
//
// Event choreography per request:
//   submit ──request()──▶ admitted? ──▶ start event (token kept)
//      │                      │              │
//      │                      no             ├─ cancel < start: cancel
//      │                      ▼              │  event retracts the
//      │                  blocked,           │  start token (the event
//      │                  scored 0           │  queue's cancellable-
//      │                                     │  event path) and calls
//      │                                     │  on_cancel
//      │                                     ▼
//      │                               on_start → departure event
//      │                                             │
//      └──────────── score π(allocated rate) ◀───────┘
//
// The whole trace is validated before anything runs: non-finite times,
// durations or rates, a start before its submit and a NaN cancel throw
// std::invalid_argument (`cancel` may be +inf, "never cancels").
// Submits are then streamed, not scheduled: the driver walks the trace
// in stable submit order and, before each submit at time t, runs every
// event due strictly before t, so a submit runs before every event
// queued for its own instant (a departure at exactly t frees its
// capacity only after the submit's decision). The heap holds only
// in-flight flows.
//
// Requests submitting before `warmup` are simulated (they hold capacity
// and shape the load every later flow sees) but not scored.
// Cancelled-before-start flows are simulated, counted, and unscored.
// The engine is single-threaded and deterministic: outcomes are a pure
// function of (trace, policy, config).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "bevr/admission/policy.h"
#include "bevr/admission/trace.h"
#include "bevr/obs/flight_recorder.h"
#include "bevr/utility/utility.h"

namespace bevr::admission {

struct EngineConfig {
  double warmup = 0.0;    ///< requests submitting earlier are unscored
  bool flush_obs = true;  ///< batch the family's counters at run end
  /// Seed for per-flow trace ids (obs::TraceContext::derive over the
  /// flow's trace order). Decision events are recorded against these
  /// ids in the flight recorder always, and in the trace collector
  /// when tracing is enabled — write-only side channels; outcomes are
  /// unchanged.
  std::uint64_t trace_seed = 0;
  /// Run the family's invariant audit (net2: the LinkLedger) after
  /// every event and every submit; it throws std::logic_error out of
  /// the run on the first violation.
  bool audit = false;
};

/// What one replay produced, for either policy family.
struct FlowReport {
  // Counts over scored (post-warmup) requests.
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t cancelled = 0;  ///< retracted before their start
  std::uint64_t rerouted = 0;   ///< admitted with Decision::rerouted
  // Calendar lifetime totals (all requests, warmup included); zero
  // when the run has no calendar.
  std::uint64_t calendar_offers = 0;
  std::uint64_t counteroffers = 0;
  std::uint64_t expirations = 0;

  double mean_utility = 0.0;  ///< scored flows; blocked score 0
  /// blocked / (offered - cancelled) over the scored window.
  double blocking_probability = 0.0;
  double mean_allocated_rate = 0.0;  ///< scored admitted flows
  std::uint64_t peak_active = 0;     ///< max concurrently-served flows
};

/// One obs counter a family flushes at run end, and the report field
/// it carries.
struct FlowCounter {
  const char* name;
  std::uint64_t FlowReport::*value;
};

/// A family's observable vocabulary, passed to the engine as data: the
/// trace-collector names and flight codes of its decision events
/// (blocks record kBlock, cancellations kCancel), and its counters.
struct FlowNames {
  const char* admit;
  obs::FlightCode admit_code;
  const char* reroute;  ///< an admit with Decision::rerouted
  obs::FlightCode reroute_code;
  const char* block;
  const char* cancel;
  std::span<const FlowCounter> counters;
};

/// What a family shows the engine besides the four policy calls.
struct FlowProbes {
  /// The calendar the policy books, if any: each decision records the
  /// expiry sweeps since the last decision, and the report carries its
  /// lifetime totals. (A decision's own record carries the count of
  /// flows in service, calendar or not.)
  const CapacityCalendar* calendar = nullptr;
  /// The invariant audit EngineConfig::audit runs.
  std::function<void()> audit;
};

/// Replay `trace` against `policy`, scoring allocations through `pi`.
[[nodiscard]] FlowReport run_flows(const ArrivalTrace& trace,
                                   FlowPolicy& policy,
                                   const utility::UtilityFunction& pi,
                                   const EngineConfig& config,
                                   const FlowNames& names,
                                   const FlowProbes& probes);

struct AdmissionReport {
  // Counts over scored (post-warmup) requests.
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t cancelled = 0;  ///< retracted before their start
  std::uint64_t counteroffers_accepted = 0;
  // Calendar lifetime totals (all requests, warmup included); zero for
  // policies without a calendar.
  std::uint64_t calendar_offers = 0;
  std::uint64_t counteroffers = 0;
  std::uint64_t expirations = 0;

  double mean_utility = 0.0;  ///< scored flows; blocked score 0
  /// blocked / (offered - cancelled) over the scored window.
  double blocking_probability = 0.0;
  double mean_allocated_rate = 0.0;  ///< scored admitted flows
  std::uint64_t peak_active = 0;     ///< max concurrently-served flows
};

/// run_flows under the admission/* names (admit, counteroffer, block,
/// cancel) with the policy's calendar, if any.
[[nodiscard]] AdmissionReport run_admission(
    const ArrivalTrace& trace, AdmissionPolicy& policy,
    const utility::UtilityFunction& pi, const EngineConfig& config = {});

}  // namespace bevr::admission
