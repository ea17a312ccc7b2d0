// Event-driven admission engine: replays one ArrivalTrace against one
// AdmissionPolicy on a sim::EventQueue and reports aggregate outcomes.
//
// Event choreography per request:
//   submit ──request()──▶ admitted? ──▶ start event (token kept)
//      │                      │              │
//      │                      no             ├─ cancel < start: cancel
//      │                      ▼              │  event retracts the
//      │                  blocked,           │  start token (the event
//      │                  scored 0           │  queue's cancellable-
//      │                                     │  event path) and
//      │                                     │  releases the booking
//      │                                     ▼
//      │                               on_start → departure event
//      │                                             │
//      └──────────── score π(allocated rate) ◀───────┘
//
// Submits are streamed, not scheduled: the driver walks the trace in
// stable submit order and, before each submit at time t, runs every
// event due strictly before t, so a submit runs before every event
// queued for its own instant (a departure at exactly t frees its
// capacity only after the submit's decision). The heap holds only
// in-flight flows. Non-finite times, durations or rates throw
// std::invalid_argument before anything runs; `cancel` may be +inf.
//
// Requests submitting before `warmup` are simulated (they occupy the
// calendar and shape the load every later flow sees) but not scored.
// Cancelled-before-start flows are simulated, counted, and unscored.
// The engine is single-threaded and deterministic: outcomes are a pure
// function of (trace, policy, config).
#pragma once

#include <cstdint>

#include "bevr/admission/policy.h"
#include "bevr/admission/trace.h"
#include "bevr/utility/utility.h"

namespace bevr::admission {

struct EngineConfig {
  double warmup = 0.0;    ///< requests submitting earlier are unscored
  bool flush_obs = true;  ///< batch admission/* counters at run end
  /// Seed for per-flow trace ids (obs::TraceContext::derive over the
  /// flow's trace order). Decision events (admit / block /
  /// counteroffer / cancel) are recorded against these ids in the
  /// flight recorder always, and in the trace collector when tracing
  /// is enabled — write-only side channels; outcomes are unchanged.
  std::uint64_t trace_seed = 0;
};

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

/// Replay `trace` against `policy`, scoring allocations through `pi`.
[[nodiscard]] AdmissionReport run_admission(
    const ArrivalTrace& trace, AdmissionPolicy& policy,
    const utility::UtilityFunction& pi, const EngineConfig& config = {});

}  // namespace bevr::admission
