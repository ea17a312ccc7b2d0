#include "bevr/net2/trace.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace bevr::net2 {

void NetTraceSpec::validate() const {
  if (!(pair_arrival_rate > 0.0) || !std::isfinite(pair_arrival_rate)) {
    throw std::invalid_argument(
        "NetTraceSpec: pair_arrival_rate must be finite and > 0");
  }
  if (!(mean_duration > 0.0) || !std::isfinite(mean_duration)) {
    throw std::invalid_argument(
        "NetTraceSpec: mean_duration must be finite and > 0");
  }
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument("NetTraceSpec: rate must be finite and > 0");
  }
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument("NetTraceSpec: horizon must be finite and > 0");
  }
}

NetTrace generate_net_trace(const Topology& topology, const NetTraceSpec& spec,
                            const sim::Rng& root) {
  spec.validate();
  if (topology.link_count() == 0) {
    throw std::invalid_argument("generate_net_trace: topology has no links");
  }
  const double mean_gap = 1.0 / spec.pair_arrival_rate;
  // One Poisson call stream per connected pair, in pair-major order.
  struct PairCalls {
    NodeId src;
    NodeId dst;
    sim::Rng interarrivals;
    sim::Rng durations;
    sim::Rng route_draws;
  };
  std::vector<PairCalls> pairs;
  std::size_t calls = 0;
  const NodeId nodes = static_cast<NodeId>(topology.node_count());
  for (NodeId src = 0; src < nodes; ++src) {
    for (NodeId dst = src + 1; dst < nodes; ++dst) {
      if (!topology.shortest_path(src, dst)) continue;  // disconnected pair
      // The pair's stream id is the Szudzik pairing of (src, dst) —
      // independent of the node count, so growing the topology never
      // perturbs the arrival times of the pairs that remain. Field
      // sub-streams per pair: 0 interarrivals, 1 durations, 2 route
      // draws; a later field gets stream 3 without perturbing these.
      const std::uint64_t pair_stream =
          static_cast<std::uint64_t>(dst) * static_cast<std::uint64_t>(dst) +
          static_cast<std::uint64_t>(src);
      const sim::Rng pair_root = root.split(pair_stream);
      pairs.push_back(PairCalls{src, dst, pair_root.split(0),
                                pair_root.split(1), pair_root.split(2)});
      // Count the pair's calls on a copy of its interarrival stream, so
      // the trace is allocated once, at its exact size.
      sim::Rng count = pairs.back().interarrivals;
      for (double at = count.exponential(mean_gap); at <= spec.horizon;
           at += count.exponential(mean_gap)) {
        ++calls;
      }
    }
  }
  NetTrace trace;
  trace.horizon = spec.horizon;
  trace.requests.reserve(calls);
  // Merge the pairs' streams into submit order. A tie goes to the
  // earlier pair, where a stable sort of the pair-major sequence would
  // put it (the goldens pin that order), and no sort buffer is needed.
  using Due = std::pair<double, std::size_t>;  // (arrival, pair index)
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    due.emplace(pairs[i].interarrivals.exponential(mean_gap), i);
  }
  while (!due.empty()) {
    const auto [at, i] = due.top();
    due.pop();
    if (at > spec.horizon) continue;  // the pair's stream is done
    PairCalls& pair = pairs[i];
    FlowRequest req;
    req.src = pair.src;
    req.dst = pair.dst;
    req.submit = at;
    req.start = at;
    req.duration = pair.durations.exponential(spec.mean_duration);
    req.rate = spec.rate;
    req.route_draw = pair.route_draws.engine()();
    trace.requests.push_back(req);
    due.emplace(at + pair.interarrivals.exponential(mean_gap), i);
  }
  return trace;
}

}  // namespace bevr::net2
