#include "bevr/net/rsvp.h"

#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace bevr::net {
namespace {

// A two-hop line src — mid — dst; link 0 is src–mid, link 1 mid–dst.
struct Fixture {
  static constexpr NodeId src = 0, mid = 1, dst = 2;
  std::shared_ptr<net2::Topology> topo = std::make_shared<net2::Topology>();
  std::shared_ptr<RsvpAgent> agent;

  explicit Fixture(double capacity = 100.0, double timeout = 30.0) {
    topo->add_link(src, mid, capacity);
    topo->add_link(mid, dst, capacity);
    agent = std::make_shared<RsvpAgent>(
        topo, std::make_shared<ParameterBasedAdmission>(1.0), timeout);
  }
};

FlowSpec unit_flow(double rate = 1.0) {
  FlowSpec spec;
  spec.tspec.bucket_rate = rate;
  spec.tspec.peak_rate = rate;
  spec.rspec.rate = rate;
  return spec;
}

TEST(RsvpAgent, PathThenResvCommits) {
  Fixture f;
  const auto session = f.agent->open_session(f.src, f.dst, 0.0);
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(f.agent->reserve(*session, unit_flow(5.0), 1.0),
            ResvResult::kCommitted);
  EXPECT_TRUE(f.agent->has_reservation(*session));
  EXPECT_EQ(f.agent->committed_sessions(), 1u);
  // Both hops hold the reservation.
  EXPECT_EQ(std::vector<LinkId>(f.agent->path(*session).begin(),
                                f.agent->path(*session).end()),
            (std::vector<LinkId>{0, 1}));
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(0), 5.0);
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(1), 5.0);
  EXPECT_THROW((void)f.agent->path(*session + 1), std::out_of_range);
}

TEST(RsvpAgent, NoRouteNoSession) {
  // Two components: 0–1 and 2–3.
  auto topo = std::make_shared<net2::Topology>();
  topo->add_link(0, 1, 1.0);
  topo->add_link(2, 3, 1.0);
  RsvpAgent agent(topo, std::make_shared<ParameterBasedAdmission>(1.0));
  EXPECT_FALSE(agent.open_session(0, 2, 0.0).has_value());
}

TEST(RsvpAgent, TypedErrorsAtTheBoundary) {
  Fixture f;
  // An unknown node: net2::Topology::shortest_path rejects it.
  EXPECT_THROW((void)f.agent->open_session(f.src, 7, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)f.agent->open_session(-1, f.dst, 0.0),
               std::invalid_argument);
  // An unknown link is not stored silently.
  EXPECT_THROW(f.agent->set_measured_load(2, 1.0), std::out_of_range);
  EXPECT_THROW(f.agent->set_measured_load(-1, 1.0), std::out_of_range);
  EXPECT_THROW(f.agent->set_measured_load(0, -1.0), std::invalid_argument);
  EXPECT_THROW(RsvpAgent(nullptr,
                         std::make_shared<ParameterBasedAdmission>(1.0)),
               std::invalid_argument);
  EXPECT_THROW(RsvpAgent(f.topo, nullptr), std::invalid_argument);
}

TEST(RsvpAgent, OppositeDirectionsShareOneLink) {
  // Links are undirected: a reservation books the link's one capacity
  // whichever way the session crosses it.
  Fixture f(/*capacity=*/10.0);
  const auto forward = f.agent->open_session(f.src, f.dst, 0.0);
  const auto backward = f.agent->open_session(f.dst, f.src, 0.0);
  ASSERT_TRUE(forward && backward);
  EXPECT_EQ(f.agent->path(*backward).size(), 2u);
  EXPECT_EQ(f.agent->reserve(*forward, unit_flow(6.0), 0.0),
            ResvResult::kCommitted);
  EXPECT_EQ(f.agent->reserve(*backward, unit_flow(6.0), 0.0),
            ResvResult::kAdmissionDenied);
  EXPECT_EQ(f.agent->reserve(*backward, unit_flow(4.0), 0.0),
            ResvResult::kCommitted);
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(0), 10.0);
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(1), 10.0);
}

TEST(RsvpAgent, AdmissionDenialIsAllOrNothing) {
  Fixture f(/*capacity=*/10.0);
  const auto s1 = f.agent->open_session(f.src, f.dst, 0.0);
  const auto s2 = f.agent->open_session(f.src, f.dst, 0.0);
  ASSERT_TRUE(s1 && s2);
  EXPECT_EQ(f.agent->reserve(*s1, unit_flow(8.0), 0.0),
            ResvResult::kCommitted);
  EXPECT_EQ(f.agent->reserve(*s2, unit_flow(8.0), 0.0),
            ResvResult::kAdmissionDenied);
  // The denied request held nothing anywhere.
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(0), 8.0);
  EXPECT_FALSE(f.agent->has_reservation(*s2));
}

TEST(RsvpAgent, HomogeneousUnitFlowsReproduceKMax) {
  // The paper's single-link admission rule: capacity 100, unit flows →
  // exactly 100 admitted, the 101st rejected.
  Fixture f(/*capacity=*/100.0);
  int committed = 0;
  for (int i = 0; i < 120; ++i) {
    const auto session = f.agent->open_session(f.src, f.dst, 0.0);
    ASSERT_TRUE(session.has_value());
    if (f.agent->reserve(*session, unit_flow(1.0), 0.0) ==
        ResvResult::kCommitted) {
      ++committed;
    }
  }
  EXPECT_EQ(committed, 100);
}

TEST(RsvpAgent, TeardownReleasesBandwidth) {
  Fixture f(10.0);
  const auto s1 = f.agent->open_session(f.src, f.dst, 0.0);
  ASSERT_EQ(f.agent->reserve(*s1, unit_flow(8.0), 0.0),
            ResvResult::kCommitted);
  f.agent->teardown(*s1, 1.0);
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(0), 0.0);
  const auto s2 = f.agent->open_session(f.src, f.dst, 1.0);
  EXPECT_EQ(f.agent->reserve(*s2, unit_flow(8.0), 1.0),
            ResvResult::kCommitted);
}

TEST(RsvpAgent, SoftStateExpiresWithoutRefresh) {
  Fixture f(100.0, /*timeout=*/10.0);
  const auto session = f.agent->open_session(f.src, f.dst, 0.0);
  ASSERT_EQ(f.agent->reserve(*session, unit_flow(5.0), 0.0),
            ResvResult::kCommitted);
  f.agent->expire(5.0);  // still fresh
  EXPECT_TRUE(f.agent->has_reservation(*session));
  f.agent->expire(11.0);  // stale: both path and resv state die
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(0), 0.0);
  EXPECT_EQ(f.agent->committed_sessions(), 0u);
}

TEST(RsvpAgent, RefreshKeepsStateAlive) {
  Fixture f(100.0, /*timeout=*/10.0);
  const auto session = f.agent->open_session(f.src, f.dst, 0.0);
  ASSERT_EQ(f.agent->reserve(*session, unit_flow(5.0), 0.0),
            ResvResult::kCommitted);
  for (double t = 5.0; t <= 50.0; t += 5.0) {
    f.agent->refresh(*session, t);
    f.agent->expire(t + 1.0);
    EXPECT_TRUE(f.agent->has_reservation(*session)) << "t=" << t;
  }
}

TEST(RsvpAgent, ReservationReplacesNotStacks) {
  Fixture f(10.0);
  const auto session = f.agent->open_session(f.src, f.dst, 0.0);
  ASSERT_EQ(f.agent->reserve(*session, unit_flow(4.0), 0.0),
            ResvResult::kCommitted);
  // Upgrade to 9: must succeed because the old 4 is not counted
  // against its own replacement.
  EXPECT_EQ(f.agent->reserve(*session, unit_flow(9.0), 0.0),
            ResvResult::kCommitted);
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(0), 9.0);
}

TEST(RsvpAgent, DeniedUpgradeKeepsItsReservation) {
  // A failed modification leaves the existing reservation in place
  // (RFC 2205).
  Fixture f(10.0);
  const auto session = f.agent->open_session(f.src, f.dst, 0.0);
  ASSERT_EQ(f.agent->reserve(*session, unit_flow(4.0), 0.0),
            ResvResult::kCommitted);
  EXPECT_EQ(f.agent->reserve(*session, unit_flow(12.0), 0.0),
            ResvResult::kAdmissionDenied);
  EXPECT_TRUE(f.agent->has_reservation(*session));
  EXPECT_EQ(f.agent->committed_sessions(), 1u);
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(0), 4.0);
  EXPECT_DOUBLE_EQ(f.agent->reserved_on_link(1), 4.0);
  // The kept 4 still counts against everyone else.
  const auto other = f.agent->open_session(f.src, f.dst, 0.0);
  EXPECT_EQ(f.agent->reserve(*other, unit_flow(7.0), 0.0),
            ResvResult::kAdmissionDenied);
  EXPECT_EQ(f.agent->reserve(*other, unit_flow(6.0), 0.0),
            ResvResult::kCommitted);
}

TEST(RsvpAgent, ReserveWithoutPathState) {
  Fixture f(100.0, /*timeout=*/10.0);
  const auto session = f.agent->open_session(f.src, f.dst, 0.0);
  // Long after the path state expired:
  EXPECT_EQ(f.agent->reserve(*session, unit_flow(1.0), 100.0),
            ResvResult::kNoPathState);
  EXPECT_EQ(f.agent->reserve(9999, unit_flow(1.0), 0.0),
            ResvResult::kNoPathState);
}

}  // namespace
}  // namespace bevr::net
