// Reservation-substrate walkthrough: the machinery behind the paper's
// abstract "reservation-capable architecture" — RSVP-style PATH/RESV
// soft-state signalling over a small topology, per-link admission
// control, teardown/expiry, and the GPS scheduler delivering the
// reserved rates while best-effort traffic shares the rest.
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "bevr/net/rsvp.h"
#include "bevr/net/scheduler.h"
#include "bevr/net/token_bucket.h"
#include "bevr/net2/topology.h"
#include "bevr/utility/utility.h"

int main() {
  using namespace bevr;

  // Topology: two access nodes behind a shared 10-unit backbone link.
  constexpr net::NodeId alice = 0, left = 1, right = 2, bob = 3;
  auto topo = std::make_shared<net2::Topology>();
  topo->add_link(alice, left, 100.0);
  topo->add_link(left, right, 10.0);
  topo->add_link(right, bob, 100.0);
  const net::LinkId backbone = *topo->find_link(left, right);

  net::RsvpAgent agent(topo,
                       std::make_shared<net::ParameterBasedAdmission>(1.0),
                       /*refresh_timeout=*/30.0);

  auto flow = [](double rate) {
    net::FlowSpec spec;
    spec.tspec.bucket_rate = rate;
    spec.tspec.peak_rate = rate;
    spec.tspec.bucket_depth = rate;  // one second of burst
    spec.rspec.rate = rate;
    return spec;
  };

  std::printf("PATH/RESV signalling over alice -> bob (backbone 10 units)\n");
  std::vector<net::SessionId> sessions;
  double now = 0.0;
  for (int i = 0; i < 4; ++i) {
    const auto session = agent.open_session(alice, bob, now);
    const auto result = agent.reserve(*session, flow(3.0), now);
    std::printf("  session %llu requests 3.0 -> %s (backbone reserved: %g)\n",
                static_cast<unsigned long long>(*session),
                result == net::ResvResult::kCommitted ? "COMMITTED"
                                                      : "ADMISSION DENIED",
                agent.reserved_on_link(backbone));
    if (result == net::ResvResult::kCommitted) sessions.push_back(*session);
  }

  std::printf("\nTeardown of session %llu frees its bandwidth:\n",
              static_cast<unsigned long long>(sessions.front()));
  agent.teardown(sessions.front(), now);
  std::printf("  backbone reserved: %g -> a new 3.0 request now %s\n",
              agent.reserved_on_link(backbone),
              agent.reserve(*agent.open_session(alice, bob, now), flow(3.0),
                            now) == net::ResvResult::kCommitted
                  ? "COMMITS"
                  : "fails");

  std::printf("\nSoft state: without refreshes all reservations expire.\n");
  now = 100.0;
  agent.expire(now);
  std::printf("  backbone reserved after timeout: %g (sessions left: %zu)\n",
              agent.reserved_on_link(backbone), agent.committed_sessions());

  // The data plane: reserved flows hold their rate against best-effort
  // pressure; the utility model quantifies what that is worth.
  std::printf("\nGPS scheduler on the 10-unit backbone:\n");
  const net::FluidScheduler scheduler(10.0);
  const utility::AdaptiveExp pi;
  std::vector<net::SchedulableFlow> flows = {
      {.id = 1, .reserved_rate = 3.0, .weight = 1.0, .demand = 3.0},
      {.id = 2, .reserved_rate = 3.0, .weight = 1.0, .demand = 3.0},
  };
  for (int burden = 0; burden < 16; ++burden) {
    flows.push_back({.id = static_cast<std::uint64_t>(100 + burden),
                     .reserved_rate = 0.0,
                     .weight = 1.0,
                     .demand = std::numeric_limits<double>::infinity()});
  }
  const auto allocations = scheduler.allocate(flows);
  std::printf("  reserved flow 1: rate %.2f  (utility %.3f)\n",
              allocations[0].rate, pi.value(allocations[0].rate));
  std::printf("  reserved flow 2: rate %.2f  (utility %.3f)\n",
              allocations[1].rate, pi.value(allocations[1].rate));
  std::printf("  each of 16 best-effort flows: rate %.2f (utility %.3f)\n",
              allocations[2].rate, pi.value(allocations[2].rate));

  // Policing: the token bucket caps a misbehaving reserved source.
  net::TokenBucket policer(3.0, 3.0);
  double conforming = 0.0;
  for (double t = 0.0; t < 10.0; t += 0.5) {
    if (policer.consume(t, 3.0)) conforming += 3.0;  // tries 6.0/s
  }
  std::printf("\nPolicing a source sending 6.0/s against TSpec r=3, b=3:\n");
  std::printf("  conforming volume over 10s: %.1f (cap = r*t + b = 33)\n",
              conforming);
  return 0;
}
