// Multi-link reservation study: the paper analyses one link; this
// example replays RSVP reservations over a dumbbell topology on the
// flow engine to show how its single-link conclusions compose. Two
// traffic pairs share a bottleneck; we sweep the bottleneck capacity
// and compare the measured blocking/utility with the single-link
// theory (Erlang-B for the aggregate), then demonstrate how a
// utilisation bound (the admission controller's safety margin) trades
// blocking against overload protection.
#include <cstdint>
#include <cstdio>
#include <memory>

#include "bevr/admission/engine.h"
#include "bevr/admission/trace.h"
#include "bevr/net/admission.h"
#include "bevr/net/rsvp_policy.h"
#include "bevr/net2/topology.h"
#include "bevr/numerics/erlang.h"
#include "bevr/sim/rng.h"
#include "bevr/utility/utility.h"

namespace {

using namespace bevr;

// Dumbbell: a, b --- left ==bottleneck== right --- c, d.
constexpr net::NodeId kA = 0, kB = 1, kLeft = 2, kRight = 3, kC = 4, kD = 5;

std::shared_ptr<const net2::Topology> dumbbell(double bottleneck) {
  auto topo = std::make_shared<net2::Topology>();
  topo->add_link(kA, kLeft, 1e6);
  topo->add_link(kB, kLeft, 1e6);
  topo->add_link(kLeft, kRight, bottleneck);
  topo->add_link(kRight, kC, 1e6);
  topo->add_link(kRight, kD, 1e6);
  return topo;
}

/// Poisson calls at 100/s until t = 4000, unit mean holding time and
/// unit reservations. Each call goes b->d with probability `to_bd`,
/// else a->c, so the pairs offer independent Poisson streams.
admission::ArrivalTrace calls(double to_bd) {
  admission::TraceSpec spec;
  spec.arrival_rate = 100.0;
  spec.horizon = 4000.0;
  const sim::Rng root(42);
  admission::ArrivalTrace trace = admission::generate_trace(spec, root);
  sim::Rng pick = root.split(4);  // streams 0..3 are the generator's
  for (admission::FlowRequest& req : trace.requests) {
    const bool bd = pick.bernoulli(to_bd);
    req.src = bd ? kB : kA;
    req.dst = bd ? kD : kC;
  }
  return trace;
}

}  // namespace

int main() {
  const utility::AdaptiveExp pi;
  admission::EngineConfig config;
  config.warmup = 200.0;

  std::printf("Two pairs (a->c, b->d), 50 flows/s each, unit reservations,\n");
  std::printf("sharing one bottleneck. Aggregate offered load: 100.\n\n");
  std::printf("%12s %12s %12s %12s\n", "bottleneck", "blocking", "erlang_b",
              "utility");
  const admission::ArrivalTrace both_pairs = calls(0.5);
  for (const double capacity : {80.0, 90.0, 100.0, 110.0, 130.0}) {
    net::RsvpPolicy policy(dumbbell(capacity),
                           std::make_shared<net::ParameterBasedAdmission>(1.0));
    const auto report = net::run_reservations(both_pairs, policy, pi, config);
    std::printf("%12.0f %12.3f %12.3f %12.3f\n", capacity,
                report.blocking_probability,
                numerics::erlang_b(100.0,
                                   static_cast<std::int64_t>(capacity)),
                report.mean_utility);
  }
  std::printf("\nThe dumbbell behaves exactly like the paper's single link\n"
              "with the pairs' aggregate load: multi-hop signalling plus\n"
              "per-link admission compose cleanly (Erlang-B column).\n");

  std::printf("\nUtilisation bound sweep at bottleneck 100 (a->c, offered "
              "100):\n");
  std::printf("%8s %12s %14s\n", "eta", "blocking", "peak_reserved");
  const admission::ArrivalTrace one_pair = calls(0.0);
  for (const double eta : {0.5, 0.7, 0.9, 1.0}) {
    net::RsvpPolicy policy(dumbbell(100.0),
                           std::make_shared<net::ParameterBasedAdmission>(eta));
    const auto report = net::run_reservations(one_pair, policy, pi, config);
    std::printf("%8.2f %12.3f %14.1f\n", eta, report.blocking_probability,
                policy.peak_reserved());
  }
  std::printf("\nLower eta buys headroom (for measurement error and burst\n"
              "tolerance) at the price of blocking — the admission-control\n"
              "knob behind the paper's k_max abstraction.\n");
  return 0;
}
