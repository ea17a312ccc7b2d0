// Network arrival traces: one shared call sequence per experiment.
//
// Exactly like the single-link admission layer, every network policy
// comparison replays one bit-identical trace: differences must come
// from routing and admission, never from the draw. A network trace is
// an admission::ArrivalTrace whose requests carry an origin-destination
// pair and a pre-drawn `route_draw` — the 64-bit random value a policy
// may consume to make its routing choice (which two-hop alternate a
// blocked DAR call tries). Pre-drawing it into the trace keeps the
// choice identical across policies and thread counts: the draw is
// part of the arrival data, not of the replay. Network calls start
// when they submit and never cancel (see run_network).
//
// Generation uses per-pair, per-field Rng::split sub-streams: the
// pair (a, b) with a < b draws from root.split(b*b + a).split(field),
// the Szudzik pairing making the stream id a pure function of the
// endpoints. Growing the topology never perturbs the arrival times of
// the pairs that remain, and changing one field's distribution never
// perturbs the others. The pairs' streams are merged into submit order
// as they are drawn, into a trace allocated once at its exact size.
#pragma once

#include "bevr/admission/trace.h"
#include "bevr/net2/topology.h"
#include "bevr/sim/rng.h"

namespace bevr::net2 {

/// The one request and trace types of the flow engine: a trace sorted
/// by submit time (stable within ties, in pair-major generation order).
using admission::FlowRequest;
using NetTrace = admission::ArrivalTrace;

/// Recipe for a symmetric network trace: every connected node pair
/// offers independent Poisson calls at `pair_arrival_rate` with
/// exponential holding times.
struct NetTraceSpec {
  double pair_arrival_rate = 1.0;  ///< calls per time unit per pair
  double mean_duration = 1.0;      ///< exponential holding-time mean
  double rate = 1.0;               ///< bandwidth each call requests
  double horizon = 200.0;          ///< stop generating arrivals past this

  /// Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

/// Generate a trace over every connected unordered node pair of the
/// topology (so star and ring topologies offer calls on genuine
/// multi-link paths, not just adjacent ones). Deterministic in
/// (topology, spec, root.seed()); bit-identical per pair under
/// pair-set growth.
[[nodiscard]] NetTrace generate_net_trace(const Topology& topology,
                                          const NetTraceSpec& spec,
                                          const sim::Rng& root);

}  // namespace bevr::net2
