// Reductions between the two policy families on the one flow engine.
// On a two-node topology with integral capacity, unit rates, and no
// book-ahead, every network policy must reproduce its single-link
// counterpart bit for bit: the same admission trace (its default
// src/dst name the two-node link, so it replays as is) runs through
// the same engine, so offered/admitted/blocked, mean utility, and
// blocking probability are compared with exact double equality, not
// tolerances. Plus the blocking monotonicity properties in load and
// capacity.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bevr/admission/engine.h"
#include "bevr/admission/policy.h"
#include "bevr/admission/trace.h"
#include "bevr/net2/engine.h"
#include "bevr/net2/policy.h"
#include "bevr/net2/topology.h"
#include "bevr/net2/trace.h"
#include "bevr/sim/rng.h"
#include "bevr/utility/utility.h"

namespace bevr::net2 {
namespace {

using utility::AdaptiveExp;
using utility::Rigid;
using utility::UtilityFunction;

constexpr double kCapacity = 10.0;
constexpr double kWarmup = 20.0;

admission::ArrivalTrace single_link_trace(double arrival_rate,
                                          std::uint64_t seed) {
  admission::TraceSpec spec;
  spec.arrival_rate = arrival_rate;
  spec.mean_duration = 1.0;
  spec.rate = 1.0;
  spec.horizon = 200.0;
  return admission::generate_trace(spec, sim::Rng(seed));
}

admission::AdmissionReport run_single_link(
    const admission::ArrivalTrace& trace, admission::PolicyKind kind,
    const std::shared_ptr<const UtilityFunction>& pi) {
  admission::PolicyConfig config;
  config.capacity = kCapacity;
  config.pi = pi;
  auto policy = admission::make_policy(kind, config);
  admission::EngineConfig engine;
  engine.warmup = kWarmup;
  return admission::run_admission(trace, *policy, *pi, engine);
}

NetReport run_two_node(const admission::ArrivalTrace& trace,
                       NetPolicyKind kind,
                       const std::shared_ptr<const UtilityFunction>& pi) {
  static const Topology topology =
      build_topology({TopologyKind::kTwoNode, 2, kCapacity, {}});
  NetPolicyConfig config;
  config.pi = pi;
  config.trunk_reserve = 0.0;
  auto policy = make_net_policy(kind, topology, config);
  NetEngineConfig engine;
  engine.warmup = kWarmup;
  engine.audit = true;  // the reduction runs under the invariant sink
  return run_network(trace, *policy, *pi, engine);
}

void expect_bit_identical(const admission::AdmissionReport& single,
                          const NetReport& net) {
  EXPECT_EQ(single.offered, net.offered);
  EXPECT_EQ(single.admitted, net.admitted);
  EXPECT_EQ(single.blocked, net.blocked);
  // Exact double equality: same arithmetic in the same order.
  EXPECT_EQ(single.mean_utility, net.mean_utility);
  EXPECT_EQ(single.blocking_probability, net.blocking_probability);
  EXPECT_EQ(single.mean_allocated_rate, net.mean_allocated_rate);
  EXPECT_EQ(single.peak_active, net.peak_active);
}

// Reservation architecture: per-link k_max slots on one link IS the
// single-link online-k_max policy. Rigid b̂=1 at C=10 gives k_max=10
// and the exact share 1.0, so every decision and every scored value
// must coincide bit for bit.
TEST(SingleLinkReduction, DirectReservationMatchesOnlineKmax) {
  const auto pi = std::make_shared<Rigid>(1.0);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto trace = single_link_trace(12.0, seed);
    expect_bit_identical(
        run_single_link(trace, admission::PolicyKind::kOnlineKmax, pi),
        run_two_node(trace, NetPolicyKind::kDirectReservation, pi));
  }
}

// DAR with r=0 on two nodes has no alternates: it is plain per-link
// admission at the requested rate, which with unit rates on integral
// capacity makes exactly the count < C decision of online k_max.
TEST(SingleLinkReduction, DarWithZeroReserveMatchesOnlineKmax) {
  const auto pi = std::make_shared<Rigid>(1.0);
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    const auto trace = single_link_trace(12.0, seed);
    const NetReport net =
        run_two_node(trace, NetPolicyKind::kDar, pi);
    EXPECT_EQ(net.alternate_routed, 0u);  // nowhere to overflow to
    expect_bit_identical(
        run_single_link(trace, admission::PolicyKind::kOnlineKmax, pi),
        net);
  }
}

// Best effort: both policies admit everything and score the bottleneck
// share capacity/active captured at start — the same division on the
// same counts in the same order. AdaptiveExp makes the score a
// nontrivial function of the share, so this pins the full scoring
// path, not just the counts.
TEST(SingleLinkReduction, BestEffortMatchesSingleLinkBestEffort) {
  const auto pi = std::make_shared<AdaptiveExp>();
  for (const std::uint64_t seed : {7u, 8u}) {
    const auto trace = single_link_trace(15.0, seed);
    const auto single =
        run_single_link(trace, admission::PolicyKind::kBestEffort, pi);
    const NetReport net =
        run_two_node(trace, NetPolicyKind::kBestEffort, pi);
    EXPECT_EQ(single.blocked, 0u);
    expect_bit_identical(single, net);
  }
}

// Blocking is monotone non-decreasing in offered load. Each load level
// uses its own trace (the arrival process changes), so the property is
// asserted across well-separated levels where the drift dwarfs the
// draw noise.
TEST(BlockingMonotonicity, NonDecreasingInLoad) {
  const Topology t = build_topology({TopologyKind::kFullMesh, 4, 10.0, {}});
  const auto pi = std::make_shared<Rigid>(1.0);
  const Rigid score(1.0);
  double previous = -1.0;
  for (const double load : {2.0, 6.0, 12.0, 24.0}) {
    NetTraceSpec spec;
    spec.pair_arrival_rate = load;
    spec.horizon = 200.0;
    const NetTrace trace = generate_net_trace(t, spec, sim::Rng(42));
    NetPolicyConfig config;
    config.pi = pi;
    config.trunk_reserve = 1.0;
    auto policy = make_net_policy(NetPolicyKind::kDar, t, config);
    NetEngineConfig engine;
    engine.warmup = kWarmup;
    const NetReport report = run_network(trace, *policy, score, engine);
    EXPECT_GE(report.blocking_probability, previous) << "load " << load;
    previous = report.blocking_probability;
  }
  EXPECT_GT(previous, 0.0);  // the top load actually blocks
}

// Blocking is monotone non-increasing in capacity. The trace depends
// only on the pair set, not on link capacities, so every capacity
// level replays the *identical* call sequence.
TEST(BlockingMonotonicity, NonIncreasingInCapacity) {
  const auto pi = std::make_shared<Rigid>(1.0);
  const Rigid score(1.0);
  NetTraceSpec spec;
  spec.pair_arrival_rate = 8.0;
  spec.horizon = 200.0;
  const NetTrace trace = generate_net_trace(
      build_topology({TopologyKind::kFullMesh, 4, 1.0, {}}), spec,
      sim::Rng(43));
  double previous = 2.0;
  for (const double capacity : {4.0, 10.0, 20.0}) {
    const Topology t =
        build_topology({TopologyKind::kFullMesh, 4, capacity, {}});
    NetPolicyConfig config;
    config.pi = pi;
    config.trunk_reserve = 1.0;
    auto policy = make_net_policy(NetPolicyKind::kDar, t, config);
    NetEngineConfig engine;
    engine.warmup = kWarmup;
    const NetReport report = run_network(trace, *policy, score, engine);
    EXPECT_LE(report.blocking_probability, previous)
        << "capacity " << capacity;
    previous = report.blocking_probability;
  }
}

}  // namespace
}  // namespace bevr::net2
