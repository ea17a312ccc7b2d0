// The network adapter over the flow engine (admission/engine.h):
// replays one NetTrace against one NetPolicy and reports aggregate
// outcomes under the net2/* names. The engine and its choreography are
// the single-link admission engine's, so on the two-node topology a
// network policy and its single-link counterpart make the same calls
// in the same order on the same trace, and their reports coincide bit
// for bit.
//
// A network call starts when it submits and never cancels: the ledger
// cannot hold a future window yet, so run_network rejects a request
// with start != submit or a finite cancel (std::invalid_argument)
// before anything runs, as it does a non-finite field. Alternate-routed
// admissions record the ROUTE_ALT flight code (direct ones ADMIT,
// refusals BLOCK). With `audit` set, the policy's LinkLedger invariants
// (no link over capacity, no negative counts) are checked after every
// event and every submit — the property suite's invariant-auditing
// sink.
#pragma once

#include <cstdint>

#include "bevr/admission/engine.h"
#include "bevr/net2/policy.h"
#include "bevr/net2/trace.h"
#include "bevr/utility/utility.h"

namespace bevr::net2 {

using NetEngineConfig = admission::EngineConfig;

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
