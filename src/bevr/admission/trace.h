// Arrival traces for the flow engine: the single-link admission layer
// and the network layer (net2) replay the same request type.
//
// Every policy comparison in the paper-style experiments hinges on
// feeding each policy the *same* sequence of flow requests:
// differences in outcome must come from the policy, never from the
// draw. An ArrivalTrace is therefore materialised once — synthetically
// from a seeded generator, or replayed from a file — and then handed,
// unchanged, to each policy's engine run. Synthetic generation draws
// each request field from its own `Rng::split` sub-stream, so changing
// one knob (say cancel_p) never perturbs the arrival times of the rest
// of the trace.
//
// The file reader is a hostile-input surface (fuzzed by
// tests/admission/test_trace_hostile.cpp): malformed lines — truncated
// fields, non-numeric tokens, NaN/inf times, negative durations,
// out-of-order submits — raise std::invalid_argument naming the line,
// never undefined behaviour.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "bevr/sim/rng.h"

namespace bevr::admission {

/// One flow request. `submit` is when the request reaches admission
/// control (book-ahead requests submit before they intend to start);
/// `cancel`, when finite and before `start`, retracts an advance
/// booking before it begins. `src`, `dst` and `route_draw` are read by
/// network policies only: the defaults name the one link of the
/// two-node topology, so a single-link trace is already a network
/// trace. `route_draw` is pre-drawn routing entropy (which two-hop
/// alternate a blocked DAR call tries), part of the arrival data so
/// the choice is identical across policies and thread counts.
struct FlowRequest {
  double submit = 0.0;
  double start = 0.0;     ///< requested service start (>= submit)
  double duration = 1.0;  ///< requested service time (> 0)
  double rate = 1.0;      ///< requested bandwidth (> 0)
  double cancel = std::numeric_limits<double>::infinity();
  std::int32_t src = 0;  ///< origin node (net2::NodeId)
  std::int32_t dst = 1;  ///< destination node
  std::uint64_t route_draw = 0;
};

/// A materialised request sequence, sorted by submit time.
struct ArrivalTrace {
  std::vector<FlowRequest> requests;
  double horizon = 0.0;  ///< no request starts after this
};

enum class TraceKind {
  kPoisson,  ///< Poisson arrivals, exponential durations
  kBursty,   ///< two-state modulated Poisson (hot/cold rates)
  kFile,     ///< replay from `path`
};

[[nodiscard]] std::string to_string(TraceKind kind);

/// Recipe for a trace. For synthetic kinds the *start* times follow
/// the arrival process; submit = max(0, start - Exp(book_ahead)) when
/// book_ahead > 0, else submit = start. With cancel_p > 0 each request
/// independently gets a cancel time uniform in [submit, start).
struct TraceSpec {
  TraceKind kind = TraceKind::kPoisson;
  double arrival_rate = 50.0;  ///< flows per time unit (Poisson)
  double burst_hot_rate = 100.0;
  double burst_cold_rate = 10.0;
  double burst_hot_p = 0.3;     ///< per-arrival chance of the hot state
  double mean_duration = 1.0;   ///< exponential holding-time mean
  double rate = 1.0;            ///< bandwidth each flow requests
  double book_ahead = 0.0;      ///< mean submit-to-start lead time
  double cancel_p = 0.0;        ///< chance a booking cancels pre-start
  double horizon = 500.0;       ///< stop generating starts past this
  std::string path;             ///< required iff kind == kFile

  /// Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

/// Generate a synthetic trace from `spec` using sub-streams of `root`
/// (streams 0..3: interarrivals, durations, book-ahead leads,
/// cancellations). Deterministic in (spec, root.seed()). Throws for
/// kFile specs — use load_trace for those.
[[nodiscard]] ArrivalTrace generate_trace(const TraceSpec& spec,
                                          const sim::Rng& root);

/// Parse a trace from a stream: one request per line as four
/// whitespace-separated numbers `submit start duration rate`; blank
/// lines and lines starting with '#' are skipped. Lines must be sorted
/// by submit time. Any malformed line raises std::invalid_argument
/// with its line number.
[[nodiscard]] ArrivalTrace parse_trace(std::istream& in);

/// parse_trace over the named file; throws std::invalid_argument when
/// the file cannot be opened.
[[nodiscard]] ArrivalTrace load_trace(const std::string& path);

}  // namespace bevr::admission
