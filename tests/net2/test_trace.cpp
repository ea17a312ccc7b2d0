// Network trace generation: determinism, per-pair stream isolation
// under topology growth, ordering, and calls that start at their
// submit and never cancel.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bevr/net2/topology.h"
#include "bevr/net2/trace.h"
#include "bevr/sim/rng.h"

namespace bevr::net2 {
namespace {

Topology mesh(int nodes) {
  return build_topology({TopologyKind::kFullMesh, nodes, 10.0, {}});
}

NetTraceSpec spec_with(double rate, double horizon) {
  NetTraceSpec spec;
  spec.pair_arrival_rate = rate;
  spec.horizon = horizon;
  return spec;
}

TEST(NetTraceSpec, ValidateRejectsOutOfRangeFields) {
  NetTraceSpec ok;
  EXPECT_NO_THROW(ok.validate());
  NetTraceSpec bad = ok;
  bad.pair_arrival_rate = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.mean_duration = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.rate = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.horizon = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.horizon = 1.0 / 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(GenerateNetTrace, DeterministicInSeedAndSortedBySubmit) {
  const Topology t = mesh(4);
  const NetTraceSpec spec = spec_with(2.0, 50.0);
  const NetTrace a = generate_net_trace(t, spec, sim::Rng(7));
  const NetTrace b = generate_net_trace(t, spec, sim::Rng(7));
  ASSERT_EQ(a.requests.size(), b.requests.size());
  ASSERT_GT(a.requests.size(), 0u);
  EXPECT_EQ(a.requests.capacity(), a.requests.size());  // sized once
  EXPECT_DOUBLE_EQ(a.horizon, 50.0);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].src, b.requests[i].src);
    EXPECT_EQ(a.requests[i].dst, b.requests[i].dst);
    EXPECT_EQ(a.requests[i].submit, b.requests[i].submit);
    EXPECT_EQ(a.requests[i].duration, b.requests[i].duration);
    EXPECT_EQ(a.requests[i].rate, b.requests[i].rate);
    EXPECT_EQ(a.requests[i].route_draw, b.requests[i].route_draw);
  }
  EXPECT_TRUE(std::is_sorted(
      a.requests.begin(), a.requests.end(),
      [](const FlowRequest& x, const FlowRequest& y) {
        return x.submit < y.submit;
      }));
  const NetTrace c = generate_net_trace(t, spec, sim::Rng(8));
  EXPECT_NE(a.requests.front().submit, c.requests.front().submit);
}

TEST(GenerateNetTrace, EveryPairOffersCallsWithNormalisedEndpoints) {
  const Topology t = mesh(4);
  const NetTrace trace = generate_net_trace(t, spec_with(3.0, 80.0),
                                            sim::Rng(11));
  std::map<std::pair<NodeId, NodeId>, int> per_pair;
  for (const FlowRequest& req : trace.requests) {
    EXPECT_LT(req.src, req.dst);  // generation normalises src < dst
    EXPECT_GT(req.duration, 0.0);
    EXPECT_GE(req.submit, 0.0);
    EXPECT_LT(req.submit, 80.0);
    EXPECT_EQ(req.start, req.submit);
    EXPECT_EQ(req.cancel, std::numeric_limits<double>::infinity());
    ++per_pair[{req.src, req.dst}];
  }
  EXPECT_EQ(per_pair.size(), 6u);  // C(4,2) connected pairs
}

// The Szudzik pair-stream construction: adding nodes to the topology
// must not perturb the calls of the pairs that were already there.
TEST(GenerateNetTrace, PairStreamsSurviveTopologyGrowth) {
  const NetTraceSpec spec = spec_with(2.0, 60.0);
  const sim::Rng root(42);
  const NetTrace small = generate_net_trace(mesh(4), spec, root);
  const NetTrace large = generate_net_trace(mesh(6), spec, root);

  auto pair_calls = [](const NetTrace& trace, NodeId a, NodeId b) {
    std::vector<FlowRequest> out;
    for (const FlowRequest& req : trace.requests) {
      if (req.src == a && req.dst == b) out.push_back(req);
    }
    return out;
  };
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = a + 1; b < 4; ++b) {
      const auto before = pair_calls(small, a, b);
      const auto after = pair_calls(large, a, b);
      ASSERT_EQ(before.size(), after.size()) << a << "-" << b;
      ASSERT_GT(before.size(), 0u);
      for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].submit, after[i].submit);
        EXPECT_EQ(before[i].duration, after[i].duration);
        EXPECT_EQ(before[i].route_draw, after[i].route_draw);
      }
    }
  }
}

TEST(GenerateNetTrace, SkipsDisconnectedPairs) {
  Topology t;
  t.add_link(0, 1, 10.0);
  t.add_link(2, 3, 10.0);  // second component
  const NetTrace trace = generate_net_trace(t, spec_with(2.0, 60.0),
                                            sim::Rng(3));
  for (const FlowRequest& req : trace.requests) {
    const bool first = req.src == 0 && req.dst == 1;
    const bool second = req.src == 2 && req.dst == 3;
    EXPECT_TRUE(first || second)
        << "call offered on disconnected pair " << req.src << "-" << req.dst;
  }
}

TEST(GenerateNetTrace, StarPairsIncludeLeafToLeaf) {
  const Topology t = build_topology({TopologyKind::kStar, 4, 10.0, {}});
  const NetTrace trace = generate_net_trace(t, spec_with(2.0, 60.0),
                                            sim::Rng(5));
  const bool leaf_pair = std::any_of(
      trace.requests.begin(), trace.requests.end(),
      [](const FlowRequest& req) { return req.src == 1 && req.dst == 3; });
  EXPECT_TRUE(leaf_pair);  // multi-link path through the hub
}

}  // namespace
}  // namespace bevr::net2
