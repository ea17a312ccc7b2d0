// Network engine choreography: scoring, warmup, counters, the
// invariant-auditing sink, and input validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>

#include "bevr/net2/engine.h"
#include "bevr/net2/policy.h"
#include "bevr/net2/topology.h"
#include "bevr/net2/trace.h"
#include "bevr/obs/flight_recorder.h"
#include "bevr/sim/rng.h"
#include "bevr/utility/utility.h"

namespace bevr::net2 {
namespace {

using utility::Rigid;

NetPolicyConfig rigid_config(double trunk_reserve = 0.0) {
  NetPolicyConfig config;
  config.pi = std::make_shared<Rigid>(1.0);
  config.trunk_reserve = trunk_reserve;
  return config;
}

FlowRequest call(NodeId src, NodeId dst, double submit, double duration) {
  FlowRequest req;
  req.src = src;
  req.dst = dst;
  req.submit = submit;
  req.start = submit;
  req.duration = duration;
  return req;
}

TEST(RunNetwork, ScoresAdmittedAndBlockedCalls) {
  const Topology t = build_topology({TopologyKind::kTwoNode, 2, 2.0, {}});
  auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config());
  NetTrace trace;
  trace.horizon = 10.0;
  // Two overlapping calls fill the link; the third is blocked; the
  // fourth arrives after a departure and is admitted again.
  trace.requests = {call(0, 1, 0.0, 5.0), call(0, 1, 1.0, 1.0),
                    call(0, 1, 1.5, 1.0), call(0, 1, 3.0, 1.0)};
  const Rigid pi(1.0);
  const NetReport report = run_network(trace, *policy, pi);
  EXPECT_EQ(report.offered, 4u);
  EXPECT_EQ(report.admitted, 3u);
  EXPECT_EQ(report.blocked, 1u);
  EXPECT_EQ(report.alternate_routed, 0u);
  EXPECT_DOUBLE_EQ(report.blocking_probability, 0.25);
  // Rigid π scores 1 for each served call, 0 for the blocked one.
  EXPECT_DOUBLE_EQ(report.mean_utility, 0.75);
  EXPECT_DOUBLE_EQ(report.mean_allocated_rate, 1.0);
  EXPECT_EQ(report.peak_active, 2u);
  EXPECT_EQ(report.peak_link_count, 2);
}

TEST(RunNetwork, WarmupCallsShapeLoadButAreNotScored) {
  const Topology t = build_topology({TopologyKind::kTwoNode, 2, 1.0, {}});
  auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config());
  NetTrace trace;
  trace.horizon = 10.0;
  // The warmup call occupies the link when the scored call arrives.
  trace.requests = {call(0, 1, 0.5, 5.0), call(0, 1, 2.0, 1.0)};
  const Rigid pi(1.0);
  NetEngineConfig config;
  config.warmup = 1.0;
  const NetReport report = run_network(trace, *policy, pi, config);
  EXPECT_EQ(report.offered, 1u);
  EXPECT_EQ(report.blocked, 1u);  // blocked by the unscored warmup call
  EXPECT_DOUBLE_EQ(report.blocking_probability, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_utility, 0.0);
  EXPECT_EQ(report.peak_link_count, 1);  // warmup still counts here
}

TEST(RunNetwork, CountsAlternateRoutedCalls) {
  const Topology t = build_topology({TopologyKind::kFullMesh, 3, 1.0, {}});
  auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config());
  NetTrace trace;
  trace.horizon = 10.0;
  trace.requests = {call(0, 1, 0.0, 4.0),   // direct
                    call(0, 1, 1.0, 1.0),   // overflows via node 2
                    call(0, 1, 1.5, 1.0)};  // alternates full: lost
  const Rigid pi(1.0);
  const NetReport report = run_network(trace, *policy, pi);
  EXPECT_EQ(report.admitted, 2u);
  EXPECT_EQ(report.alternate_routed, 1u);
  EXPECT_EQ(report.blocked, 1u);
}

TEST(RunNetwork, AuditSinkAcceptsEveryEventOnAHotMesh) {
  // A saturated mesh drives thousands of admit/overflow/release events
  // through each policy; the per-event audit must never fire.
  const Topology t = build_topology({TopologyKind::kFullMesh, 4, 5.0, {}});
  NetTraceSpec spec;
  spec.pair_arrival_rate = 8.0;  // well past per-link capacity
  spec.horizon = 60.0;
  const NetTrace trace = generate_net_trace(t, spec, sim::Rng(21));
  const Rigid pi(1.0);
  NetEngineConfig config;
  config.audit = true;
  for (const NetPolicyKind kind :
       {NetPolicyKind::kBestEffort, NetPolicyKind::kDirectReservation,
        NetPolicyKind::kDar}) {
    auto policy = make_net_policy(kind, t, rigid_config(1.0));
    const NetReport report = run_network(trace, *policy, pi, config);
    EXPECT_GT(report.offered, 0u) << to_string(kind);
    if (kind != NetPolicyKind::kBestEffort) {
      // Capacity 5 per link: the audit plus the peak witness agree.
      EXPECT_LE(policy->ledger().peak_count(0), 5) << to_string(kind);
    }
  }
}

TEST(RunNetwork, DeterministicAcrossRepeatedRuns) {
  const Topology t = build_topology({TopologyKind::kFullMesh, 4, 10.0, {}});
  NetTraceSpec spec;
  spec.pair_arrival_rate = 6.0;
  spec.horizon = 80.0;
  const NetTrace trace = generate_net_trace(t, spec, sim::Rng(33));
  const Rigid pi(1.0);
  NetEngineConfig config;
  config.warmup = 10.0;
  auto a = make_net_policy(NetPolicyKind::kDar, t, rigid_config(2.0));
  auto b = make_net_policy(NetPolicyKind::kDar, t, rigid_config(2.0));
  const NetReport ra = run_network(trace, *a, pi, config);
  const NetReport rb = run_network(trace, *b, pi, config);
  EXPECT_EQ(ra.offered, rb.offered);
  EXPECT_EQ(ra.admitted, rb.admitted);
  EXPECT_EQ(ra.alternate_routed, rb.alternate_routed);
  EXPECT_EQ(ra.mean_utility, rb.mean_utility);
  EXPECT_EQ(ra.blocking_probability, rb.blocking_probability);
  EXPECT_EQ(ra.peak_link_count, rb.peak_link_count);
}

TEST(RunNetwork, RejectsMalformedInputs) {
  const Topology t = build_topology({TopologyKind::kTwoNode, 2, 2.0, {}});
  auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config());
  const Rigid pi(1.0);
  NetTrace trace;
  trace.horizon = 10.0;
  trace.requests = {call(0, 1, -1.0, 1.0)};  // negative submit
  EXPECT_THROW((void)run_network(trace, *policy, pi), std::invalid_argument);
  trace.requests = {call(0, 1, 0.0, 0.0)};  // zero duration
  EXPECT_THROW((void)run_network(trace, *policy, pi), std::invalid_argument);
  trace.requests = {call(0, 1, 0.0, 1.0)};
  trace.requests[0].rate = 0.0;
  EXPECT_THROW((void)run_network(trace, *policy, pi), std::invalid_argument);
  NetEngineConfig config;
  config.warmup = -1.0;
  trace.requests[0].rate = 1.0;
  EXPECT_THROW((void)run_network(trace, *policy, pi, config),
               std::invalid_argument);
}

TEST(RunNetwork, EmptyTraceYieldsAnEmptyReport) {
  const Topology t = build_topology({TopologyKind::kTwoNode, 2, 2.0, {}});
  auto policy = make_net_policy(NetPolicyKind::kBestEffort, t, rigid_config());
  const Rigid pi(1.0);
  const NetReport report = run_network(NetTrace{}, *policy, pi);
  EXPECT_EQ(report.offered, 0u);
  EXPECT_DOUBLE_EQ(report.blocking_probability, 0.0);
  EXPECT_DOUBLE_EQ(report.mean_utility, 0.0);
}


TEST(RunNetwork, SubmitAtADeparturesInstantSeesItsLinksHeld) {
  // Capacity 1: call A holds the link over [0, 1). A call submitted at
  // exactly t = 1 is decided before A's departure and is blocked; half
  // a unit later it is admitted.
  const Topology t = build_topology({TopologyKind::kTwoNode, 2, 1.0, {}});
  const Rigid pi(1.0);
  const auto replay = [&](double second_submit) {
    auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config());
    NetTrace trace;
    trace.horizon = 10.0;
    trace.requests = {call(0, 1, 0.0, 1.0), call(0, 1, second_submit, 1.0)};
    return run_network(trace, *policy, pi);
  };
  const NetReport tie = replay(1.0);
  EXPECT_EQ(tie.admitted, 1u);
  EXPECT_EQ(tie.blocked, 1u);
  const NetReport after = replay(1.5);
  EXPECT_EQ(after.admitted, 2u);
  EXPECT_EQ(after.blocked, 0u);
}

TEST(RunNetwork, ShuffledTraceReplaysLikeTheSortedOne) {
  const Topology t = build_topology({TopologyKind::kFullMesh, 4, 5.0, {}});
  NetTraceSpec spec;
  spec.pair_arrival_rate = 6.0;
  spec.horizon = 40.0;
  const NetTrace sorted = generate_net_trace(t, spec, sim::Rng(44));
  NetTrace shuffled = sorted;
  std::shuffle(shuffled.requests.begin(), shuffled.requests.end(),
               std::mt19937(7));
  const Rigid pi(1.0);
  const auto run = [&](const NetTrace& trace) {
    auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config(1.0));
    return run_network(trace, *policy, pi);
  };
  const NetReport a = run(sorted);
  const NetReport b = run(shuffled);
  EXPECT_GT(a.alternate_routed, 0u);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.alternate_routed, b.alternate_routed);
  EXPECT_EQ(a.mean_utility, b.mean_utility);
  EXPECT_EQ(a.blocking_probability, b.blocking_probability);
  EXPECT_EQ(a.mean_allocated_rate, b.mean_allocated_rate);
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_EQ(a.peak_link_count, b.peak_link_count);
}

/// Forwards to a real policy and counts how many policy callbacks
/// (request / on_start / on_end) ran since the engine last fetched the
/// ledger, which it does to audit.
class CountingPolicy final : public NetPolicy {
 public:
  explicit CountingPolicy(std::unique_ptr<NetPolicy> inner)
      : inner_(std::move(inner)) {}
  Decision request(const FlowRequest& req) override {
    ++unaudited_;
    ++calls_;
    return inner_->request(req);
  }
  double on_start(const FlowRequest& req, const Decision& d) override {
    ++unaudited_;
    ++calls_;
    return inner_->on_start(req, d);
  }
  void on_end(const FlowRequest& req, const Decision& d, double now) override {
    ++unaudited_;
    ++calls_;
    inner_->on_end(req, d, now);
  }
  const LinkLedger& ledger() const override {
    max_unaudited_ = std::max(max_unaudited_, unaudited_);
    unaudited_ = 0;
    ++ledger_calls_;
    return inner_->ledger();
  }
  mutable std::size_t max_unaudited_ = 0;
  mutable std::size_t ledger_calls_ = 0;
  mutable std::size_t unaudited_ = 0;
  std::size_t calls_ = 0;  ///< policy callbacks, never reset

 private:
  std::unique_ptr<NetPolicy> inner_;
};

TEST(RunNetwork, AuditRunsAfterEverySubmitStartAndDeparture) {
  const Topology t = build_topology({TopologyKind::kFullMesh, 4, 3.0, {}});
  NetTraceSpec spec;
  spec.pair_arrival_rate = 4.0;
  spec.horizon = 20.0;
  const NetTrace trace = generate_net_trace(t, spec, sim::Rng(5));
  const Rigid pi(1.0);
  NetEngineConfig config;
  config.audit = true;
  CountingPolicy policy(
      make_net_policy(NetPolicyKind::kDar, t, rigid_config(1.0)));
  const NetReport report = run_network(trace, policy, pi, config);
  ASSERT_GT(report.blocked, 0u);
  // Events: one submit per call, one start and one departure per
  // admitted call; plus the report's one ledger read at the end.
  const std::size_t events = trace.requests.size() + 2 * report.admitted;
  EXPECT_EQ(policy.ledger_calls_, events + 1);
  EXPECT_EQ(policy.max_unaudited_, 1u);

  config.audit = false;
  CountingPolicy quiet(
      make_net_policy(NetPolicyKind::kDar, t, rigid_config(1.0)));
  (void)run_network(trace, quiet, pi, config);
  EXPECT_EQ(quiet.ledger_calls_, 1u);
}

TEST(RunNetwork, AlternateRoutedCallsRecordRouteAlt) {
  EXPECT_STREQ(obs::flight_code_name(obs::FlightCode::kRouteAlternate),
               "ROUTE_ALT");
  EXPECT_EQ(static_cast<std::uint32_t>(obs::FlightCode::kRouteAlternate),
            static_cast<std::uint32_t>(obs::FlightCode::kContractFail) + 1);

  const Topology t = build_topology({TopologyKind::kFullMesh, 3, 1.0, {}});
  auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config());
  NetTrace trace;
  trace.horizon = 10.0;
  trace.requests = {call(0, 1, 0.0, 4.0),   // direct
                    call(0, 1, 1.0, 1.0),   // overflows via node 2
                    call(0, 1, 1.5, 1.0)};  // lost
  const Rigid pi(1.0);
  obs::FlightRecorder::global().clear();
  const NetReport report = run_network(trace, *policy, pi);
  ASSERT_EQ(report.alternate_routed, 1u);
  std::size_t route_alt = 0;
  std::size_t admit = 0;
  std::size_t block = 0;
  std::size_t mark = 0;
  for (const auto& record : obs::FlightRecorder::global().records()) {
    switch (record.code) {
      case obs::FlightCode::kRouteAlternate:
        ++route_alt;
        EXPECT_DOUBLE_EQ(record.b, 1.0);  // the second call
        break;
      case obs::FlightCode::kAdmit: ++admit; break;
      case obs::FlightCode::kBlock: ++block; break;
      case obs::FlightCode::kMark: ++mark; break;
      default: break;
    }
  }
  EXPECT_EQ(route_alt, 1u);
  EXPECT_EQ(admit, 1u);
  EXPECT_EQ(block, 1u);
  EXPECT_EQ(mark, 0u);
}

TEST(RunNetwork, RejectsNonFiniteFieldsBeforeRunningAnything) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Topology t = build_topology({TopologyKind::kTwoNode, 2, 2.0, {}});
  const Rigid pi(1.0);
  const auto rejects = [&](FlowRequest bad) {
    auto policy = make_net_policy(NetPolicyKind::kDar, t, rigid_config());
    NetTrace trace;
    trace.horizon = 10.0;
    trace.requests = {call(0, 1, 0.0, 1.0), bad};
    EXPECT_THROW((void)run_network(trace, *policy, pi),
                 std::invalid_argument);
    EXPECT_EQ(policy->ledger().peak_count(0), 0);  // nothing ran
  };
  FlowRequest req = call(0, 1, 1.0, 1.0);
  req.submit = nan;
  rejects(req);
  req.submit = inf;
  rejects(req);
  req = call(0, 1, 1.0, 1.0);
  req.duration = nan;
  rejects(req);
  req.duration = inf;
  rejects(req);
  req = call(0, 1, 1.0, 1.0);
  req.rate = nan;
  rejects(req);
  req.rate = inf;
  rejects(req);
}

TEST(RunNetwork, RejectsBookAheadAndCancellationBeforeAnyPolicyCall) {
  // The ledger holds no future windows: a call must start when it
  // submits and never cancel. A valid first call, then the bad one:
  // the run throws before the policy sees either.
  const Topology t = build_topology({TopologyKind::kTwoNode, 2, 2.0, {}});
  const Rigid pi(1.0);
  const auto rejects = [&](FlowRequest bad) {
    CountingPolicy policy(
        make_net_policy(NetPolicyKind::kDar, t, rigid_config()));
    NetTrace trace;
    trace.requests = {call(0, 1, 0.0, 1.0), bad};
    EXPECT_THROW((void)run_network(trace, policy, pi), std::invalid_argument);
    EXPECT_EQ(policy.calls_, 0u);
    EXPECT_EQ(policy.ledger().peak_count(0), 0);
  };
  FlowRequest book_ahead = call(0, 1, 1.0, 1.0);
  book_ahead.start = 2.0;
  rejects(book_ahead);
  FlowRequest cancelling = call(0, 1, 1.0, 1.0);
  cancelling.cancel = 1.5;
  rejects(cancelling);
  // Any finite cancel is refused, even one past the start that would
  // never fire.
  cancelling.cancel = 3.0;
  rejects(cancelling);
}

}  // namespace
}  // namespace bevr::net2
