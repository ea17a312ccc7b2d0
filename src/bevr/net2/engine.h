// Event-driven network engine: replays one NetTrace against one
// NetPolicy on a sim::EventQueue and reports aggregate outcomes.
//
// The choreography deliberately mirrors the single-link admission
// engine event for event — the r=0 two-node equivalence tests require
// bit-identical outcomes, which means bit-identical event order and
// bit-identical arithmetic, not just equal statistics:
//
//   submit ──request()──▶ admitted? ──▶ start event (same time)
//      │                      │              │
//      │                      no             ▼
//      │                      ▼         on_start → departure event
//      │                  blocked,                    │
//      │                  scored 0                    │
//      └──────────── score π(allocated rate) ◀────────┘
//
// Submits are streamed in stable submit order exactly as the admission
// engine streams them, so a call submitted at the instant another
// departs still sees that call's links held. Non-finite times,
// durations or rates throw std::invalid_argument before anything runs.
//
// Calls submitting before `warmup` are simulated (they hold links and
// shape the load every later call sees) but not scored. The engine is
// single-threaded and deterministic: outcomes are a pure function of
// (trace, policy, config). With `audit` set, the policy's LinkLedger
// invariants (no link over capacity, no negative counts) are checked
// after every event and every submit — the property suite's
// invariant-auditing sink.
#pragma once

#include <cstdint>

#include "bevr/net2/policy.h"
#include "bevr/net2/trace.h"
#include "bevr/utility/utility.h"

namespace bevr::net2 {

struct NetEngineConfig {
  double warmup = 0.0;    ///< calls submitting earlier are unscored
  bool flush_obs = true;  ///< batch net2/* counters at run end
  /// Seed for per-call trace ids (obs::TraceContext::derive over the
  /// call's trace order). Route decisions (direct / alternate / block)
  /// are recorded against these ids in the flight recorder always, and
  /// in the trace collector when tracing is enabled — write-only side
  /// channels; outcomes are unchanged.
  std::uint64_t trace_seed = 0;
  /// Audit the policy's LinkLedger after every event; throws
  /// std::logic_error from the run on the first violation.
  bool audit = false;
};

struct NetReport {
  // Counts over scored (post-warmup) calls.
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t alternate_routed = 0;  ///< admitted via two-hop overflow

  double mean_utility = 0.0;  ///< scored calls; blocked score 0
  /// blocked / offered over the scored window.
  double blocking_probability = 0.0;
  double mean_allocated_rate = 0.0;  ///< scored admitted calls
  std::uint64_t peak_active = 0;     ///< max concurrently-served calls
  /// Largest concurrent flow count any link ever saw (whole run,
  /// warmup included) — the capacity-invariant witness.
  std::int64_t peak_link_count = 0;
};

/// Replay `trace` against `policy`, scoring allocations through `pi`.
[[nodiscard]] NetReport run_network(const NetTrace& trace, NetPolicy& policy,
                                    const utility::UtilityFunction& pi,
                                    const NetEngineConfig& config = {});

}  // namespace bevr::net2
