// Integration: the RSVP/admission/scheduler substrate grounds the
// paper's abstract reservation model — homogeneous unit flows through
// the actual signalling machinery reproduce the analytic k_max rule,
// and the GPS scheduler reproduces the C/k share abstraction that the
// utility model consumes.
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bevr/core/fixed_load.h"
#include "bevr/net/rsvp.h"
#include "bevr/net/scheduler.h"
#include "bevr/net/token_bucket.h"
#include "bevr/net2/topology.h"
#include "bevr/utility/utility.h"

namespace bevr {
namespace {

net::FlowSpec unit_flow(double rate = 1.0) {
  net::FlowSpec spec;
  spec.tspec.bucket_rate = rate;
  spec.tspec.peak_rate = rate;
  spec.rspec.rate = rate;
  return spec;
}

// End-to-end: RSVP admission over a 2-hop path with capacity C accepts
// exactly k_max(C) = ⌊C/b̂⌋ rigid flows — the analytic admission rule
// emerges from the mechanism.
TEST(NetSubstrate, RsvpReproducesAnalyticKMax) {
  const double capacity = 100.0;
  const utility::Rigid rigid(1.0);
  const auto kmax = core::k_max(rigid, capacity);
  ASSERT_TRUE(kmax.has_value());

  constexpr net::NodeId src = 0, router = 1, dst = 2;
  auto topo = std::make_shared<net2::Topology>();
  topo->add_link(src, router, capacity * 10.0);  // fat access link
  topo->add_link(router, dst, capacity);         // the bottleneck
  net::RsvpAgent agent(topo,
                       std::make_shared<net::ParameterBasedAdmission>(1.0));
  std::int64_t committed = 0;
  for (int i = 0; i < 150; ++i) {
    const auto session = agent.open_session(src, dst, 0.0);
    ASSERT_TRUE(session.has_value());
    if (agent.reserve(*session, unit_flow(rigid.requirement()), 0.0) ==
        net::ResvResult::kCommitted) {
      ++committed;
    }
  }
  EXPECT_EQ(committed, *kmax);
}

// The GPS scheduler's equal split drives the utility model: k greedy
// flows on capacity C each get C/k, so total utility is k·π(C/k) —
// the fixed-load V(k) — measured through the actual allocator.
TEST(NetSubstrate, SchedulerSharesReproduceFixedLoadUtility) {
  const double capacity = 100.0;
  const net::FluidScheduler scheduler(capacity);
  const utility::AdaptiveExp pi;
  for (const int k : {50, 100, 150, 200}) {
    std::vector<net::SchedulableFlow> flows;
    for (int i = 0; i < k; ++i) {
      flows.push_back({.id = static_cast<std::uint64_t>(i),
                       .reserved_rate = 0.0,
                       .weight = 1.0,
                       .demand = std::numeric_limits<double>::infinity()});
    }
    const auto allocations = scheduler.allocate(flows);
    double total_utility = 0.0;
    for (const auto& a : allocations) total_utility += pi.value(a.rate);
    EXPECT_NEAR(total_utility, core::total_utility(pi, capacity, k), 1e-6)
        << "k=" << k;
  }
}

// Mixed architecture on one link: reserved flows keep their utility at
// π(reservation) no matter how many best-effort flows pile in — the
// fundamental service guarantee reservations buy.
TEST(NetSubstrate, ReservedUtilityImmuneToBestEffortPressure) {
  const double capacity = 100.0;
  const net::FluidScheduler scheduler(capacity);
  const utility::AdaptiveExp pi;
  const double reserved_rate = 1.0;
  for (const int burden : {0, 100, 1000}) {
    std::vector<net::SchedulableFlow> flows;
    flows.push_back({.id = 0, .reserved_rate = reserved_rate, .weight = 1.0,
                     .demand = reserved_rate});
    for (int i = 0; i < burden; ++i) {
      flows.push_back({.id = static_cast<std::uint64_t>(i + 1),
                       .reserved_rate = 0.0,
                       .weight = 1.0,
                       .demand = std::numeric_limits<double>::infinity()});
    }
    const auto allocations = scheduler.allocate(flows);
    EXPECT_NEAR(pi.value(allocations[0].rate), pi.value(reserved_rate), 1e-9)
        << "burden=" << burden;
  }
}

// Conversely the best-effort flows' utility collapses as load mounts —
// quantitatively following π(C/k).
TEST(NetSubstrate, BestEffortUtilityDegradesAsPiOfShare) {
  const double capacity = 100.0;
  const net::FluidScheduler scheduler(capacity);
  const utility::AdaptiveExp pi;
  double previous = 2.0;
  for (const int k : {100, 200, 400, 800}) {
    std::vector<net::SchedulableFlow> flows;
    for (int i = 0; i < k; ++i) {
      flows.push_back({.id = static_cast<std::uint64_t>(i),
                       .reserved_rate = 0.0,
                       .weight = 1.0,
                       .demand = std::numeric_limits<double>::infinity()});
    }
    const auto allocations = scheduler.allocate(flows);
    const double per_flow = pi.value(allocations[0].rate);
    EXPECT_NEAR(per_flow, pi.value(capacity / k), 1e-9);
    EXPECT_LT(per_flow, previous);
    previous = per_flow;
  }
}

// Token-bucket policing upstream of the scheduler: a flow that reserved
// rate r but sends a burst beyond its TSpec gets clipped by the policer,
// not by other flows' service.
TEST(NetSubstrate, PolicingProtectsTheReservation) {
  net::TokenBucket bucket(/*rate=*/1.0, /*depth=*/5.0);
  double conforming = 0.0;
  // Source tries to send 3 units every second for 20 seconds.
  for (double now = 0.0; now < 20.0; now += 1.0) {
    if (bucket.consume(now, 3.0)) conforming += 3.0;
  }
  // Conformant volume ≤ r·t + b = 25; the policer enforced the TSpec.
  EXPECT_LE(conforming, 25.0 + 1e-9);
  EXPECT_GE(conforming, 15.0);
}

}  // namespace
}  // namespace bevr
