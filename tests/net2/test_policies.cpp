// Network policy behaviour: best-effort bottleneck shares, per-link
// reservation limits, DAR overflow with trunk reservation and
// route_draw-selected alternates.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "bevr/net2/policy.h"
#include "bevr/net2/topology.h"
#include "bevr/net2/trace.h"
#include "bevr/utility/utility.h"

namespace bevr::net2 {
namespace {

using utility::Elastic;
using utility::Rigid;

FlowRequest call(NodeId src, NodeId dst, double rate = 1.0,
                 std::uint64_t route_draw = 0) {
  FlowRequest req;
  req.src = src;
  req.dst = dst;
  req.rate = rate;
  req.route_draw = route_draw;
  return req;
}

NetPolicyConfig rigid_config(double trunk_reserve = 0.0) {
  NetPolicyConfig config;
  config.pi = std::make_shared<Rigid>(1.0);
  config.trunk_reserve = trunk_reserve;
  return config;
}

TEST(NetPolicyConfig, ValidateRejectsBadTrunkReserve) {
  NetPolicyConfig config = rigid_config();
  config.trunk_reserve = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.trunk_reserve = 1.0 / 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(NetPolicyKindNames, ToStringCoversEveryKind) {
  EXPECT_EQ(to_string(NetPolicyKind::kBestEffort), "net_best_effort");
  EXPECT_EQ(to_string(NetPolicyKind::kDirectReservation),
            "direct_reservation");
  EXPECT_EQ(to_string(NetPolicyKind::kDar), "dar");
}

TEST(NetBestEffort, AdmitsEverythingAndSharesTheBottleneck) {
  // Star with hub 0: leaf-to-leaf paths share the two hub links.
  const Topology t = build_topology({TopologyKind::kStar, 4, 12.0, {}});
  auto policy =
      make_net_policy(NetPolicyKind::kBestEffort, t, rigid_config());

  const auto first = policy->request(call(1, 2));
  ASSERT_TRUE(first.admitted);
  EXPECT_FALSE(first.rerouted);
  EXPECT_DOUBLE_EQ(policy->on_start(call(1, 2), first), 12.0);  // alone
  // Through the hub: both hub links carry the call.
  EXPECT_EQ(policy->ledger().count(*t.find_link(0, 1)), 1);
  EXPECT_EQ(policy->ledger().count(*t.find_link(0, 2)), 1);

  // A second call overlapping on link 0-1 halves the share there.
  const auto second = policy->request(call(1, 3));
  ASSERT_TRUE(second.admitted);
  EXPECT_DOUBLE_EQ(policy->on_start(call(1, 3), second), 6.0);

  policy->on_end(call(1, 2), first, 0.0);
  policy->on_end(call(1, 3), second, 0.0);
  EXPECT_EQ(policy->ledger().count(0), 0);
}

TEST(NetBestEffort, ShareIsTheMinimumOverThePath) {
  Topology t;
  t.add_link(0, 1, 8.0);
  t.add_link(1, 2, 2.0);  // the bottleneck
  auto policy =
      make_net_policy(NetPolicyKind::kBestEffort, t, rigid_config());
  const auto d = policy->request(call(0, 2));
  ASSERT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(policy->on_start(call(0, 2), d), 2.0);
  policy->on_end(call(0, 2), d, 0.0);
}

TEST(DirectReservation, EnforcesPerLinkKmaxSlots) {
  // Rigid b̂=1 on capacity 3 gives k_max = 3, share 1.0.
  const Topology t = build_topology({TopologyKind::kTwoNode, 2, 3.0, {}});
  auto policy =
      make_net_policy(NetPolicyKind::kDirectReservation, t, rigid_config());
  std::vector<NetPolicy::Decision> held;
  for (int i = 0; i < 3; ++i) {
    auto d = policy->request(call(0, 1));
    ASSERT_TRUE(d.admitted) << i;
    EXPECT_DOUBLE_EQ(d.rate, 1.0);
    EXPECT_DOUBLE_EQ(policy->on_start(call(0, 1), d), 1.0);
    held.push_back(d);
  }
  const auto fourth = policy->request(call(0, 1));
  EXPECT_FALSE(fourth.admitted);
  EXPECT_DOUBLE_EQ(fourth.rate, 0.0);
  policy->on_end(call(0, 1), held.back(), 0.0);
  held.pop_back();
  EXPECT_TRUE(policy->request(call(0, 1)).admitted);  // slot came back
}

TEST(DirectReservation, ShareIsTheMinimumOverThePath) {
  // Rigid b̂=1: link 0-1 has k_max=4, share 1.0; link 1-2 has
  // k_max(3.5)=3, share 3.5/3 ≈ 1.17. The path rate is the minimum.
  Topology t;
  t.add_link(0, 1, 4.0);
  t.add_link(1, 2, 3.5);
  auto policy =
      make_net_policy(NetPolicyKind::kDirectReservation, t, rigid_config());
  const auto d = policy->request(call(0, 2));
  ASSERT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(d.rate, 1.0);  // min(4/4, 3.5/3) = 1
  policy->on_end(call(0, 2), d, 0.0);
}

TEST(DirectReservation, RequiresAnAdmittableUtility) {
  const Topology t = build_topology({TopologyKind::kTwoNode, 2, 3.0, {}});
  NetPolicyConfig config;  // no pi
  EXPECT_THROW(
      (void)make_net_policy(NetPolicyKind::kDirectReservation, t, config),
      std::invalid_argument);
  config.pi = std::make_shared<Elastic>();
  EXPECT_THROW(
      (void)make_net_policy(NetPolicyKind::kDirectReservation, t, config),
      std::invalid_argument);
}

TEST(Dar, OverflowsToTheDrawSelectedAlternate) {
  const Topology t = build_topology({TopologyKind::kFullMesh, 4, 1.0, {}});
  auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config());
  // Fill the direct 0-1 link.
  const LinkLedger& ledger = policy->ledger();
  const auto direct = policy->request(call(0, 1));
  ASSERT_TRUE(direct.admitted);
  EXPECT_FALSE(direct.rerouted);
  EXPECT_DOUBLE_EQ(ledger.used(*t.find_link(0, 1)), 1.0);

  // Next 0-1 call overflows; vias for (0,1) are {2, 3} so draw 1
  // selects via 3.
  const auto alt = policy->request(call(0, 1, 1.0, /*route_draw=*/1));
  ASSERT_TRUE(alt.admitted);
  EXPECT_TRUE(alt.rerouted);
  EXPECT_DOUBLE_EQ(ledger.used(*t.find_link(0, 3)), 1.0);
  EXPECT_DOUBLE_EQ(ledger.used(*t.find_link(3, 1)), 1.0);
  EXPECT_DOUBLE_EQ(ledger.used(*t.find_link(0, 2)), 0.0);

  // Draw 0 picks via 2, whose legs are free.
  const auto alt2 = policy->request(call(0, 1, 1.0, /*route_draw=*/0));
  ASSERT_TRUE(alt2.admitted);
  EXPECT_TRUE(alt2.rerouted);
  EXPECT_DOUBLE_EQ(ledger.used(*t.find_link(0, 2)), 1.0);
  EXPECT_DOUBLE_EQ(ledger.used(*t.find_link(2, 1)), 1.0);

  // All alternates now hold full links: the next overflow is lost.
  const auto lost = policy->request(call(0, 1, 1.0, /*route_draw=*/7));
  EXPECT_FALSE(lost.admitted);

  policy->on_end(call(0, 1), direct, 0.0);
  policy->on_end(call(0, 1), alt, 0.0);
  policy->on_end(call(0, 1), alt2, 0.0);
  for (LinkId id = 0; id < 6; ++id) {
    EXPECT_DOUBLE_EQ(policy->ledger().used(id), 0.0) << "link " << id;
  }
}

TEST(Dar, TrunkReservationProtectsDirectTraffic) {
  const Topology t = build_topology({TopologyKind::kFullMesh, 3, 4.0, {}});
  auto policy = make_net_policy(NetPolicyKind::kDar, t,
                                rigid_config(/*trunk_reserve=*/2.0));
  // Saturate the direct 0-1 link with direct traffic (no headroom
  // applies to direct grabs).
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(policy->request(call(0, 1)).admitted) << i;
  }
  // An overflow call needs > 2 free circuits on each alternate leg
  // before its grab (≥ 2 after): with 4 free, then 3 free, two
  // overflows fit...
  const auto first = policy->request(call(0, 1));
  ASSERT_TRUE(first.admitted);
  EXPECT_TRUE(first.rerouted);
  const auto second = policy->request(call(0, 1));
  ASSERT_TRUE(second.admitted);
  EXPECT_TRUE(second.rerouted);
  // ...but the third finds only 2 free — not more than r — and is
  // refused even though raw capacity remains.
  const auto third = policy->request(call(0, 1));
  EXPECT_FALSE(third.admitted);
  // Direct traffic on 0-2 itself ignores the reservation entirely.
  EXPECT_TRUE(policy->request(call(0, 2)).admitted);
}

TEST(Dar, NoOverflowForMultiHopPairsOrWithoutAlternates) {
  // Ring: the 0-2 route is two hops, so a refused call never
  // overflows.
  const Topology ring = build_topology({TopologyKind::kRing, 4, 1.0, {}});
  auto on_ring = make_net_policy(NetPolicyKind::kDar, ring, rigid_config());
  ASSERT_TRUE(on_ring->request(call(0, 1)).admitted);  // fills link 0-1
  const auto refused = on_ring->request(call(0, 2));   // route 0-1-2
  EXPECT_FALSE(refused.admitted);

  // Two-node: adjacent but no intermediates — plain link admission.
  const Topology two = build_topology({TopologyKind::kTwoNode, 2, 1.0, {}});
  auto on_two = make_net_policy(NetPolicyKind::kDar, two, rigid_config());
  ASSERT_TRUE(on_two->request(call(0, 1)).admitted);
  EXPECT_FALSE(on_two->request(call(0, 1)).admitted);
}

TEST(Dar, RouteDrawWrapsModuloTheViaCount) {
  const Topology t = build_topology({TopologyKind::kFullMesh, 4, 1.0, {}});
  auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config());
  ASSERT_TRUE(policy->request(call(0, 1)).admitted);
  // Vias for (0,1) are {2, 3}: draw 4 wraps to via 2.
  const auto alt = policy->request(call(0, 1, 1.0, /*route_draw=*/4));
  ASSERT_TRUE(alt.admitted);
  EXPECT_DOUBLE_EQ(policy->ledger().used(*t.find_link(0, 2)), 1.0);
  EXPECT_DOUBLE_EQ(policy->ledger().used(*t.find_link(0, 3)), 0.0);
}

TEST(NetPolicies, UnroutablePairsThrow) {
  Topology t;
  t.add_link(0, 1, 4.0);
  t.add_link(2, 3, 4.0);  // disconnected component
  auto policy = make_net_policy(NetPolicyKind::kBestEffort, t, rigid_config());
  EXPECT_THROW((void)policy->request(call(0, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace bevr::net2
