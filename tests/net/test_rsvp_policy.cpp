// RSVP reservations on the flow engine: calls signal PATH/RESV over a
// dumbbell, every hop runs admission control, and the single-link
// theory (Erlang-B) must hold at the bottleneck.
#include "bevr/net/rsvp_policy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bevr/numerics/erlang.h"
#include "bevr/sim/rng.h"
#include "bevr/utility/utility.h"

namespace bevr::net {
namespace {

// Dumbbell: a, b — left ══bottleneck══ right — c, d.
constexpr NodeId kA = 0, kB = 1, kLeft = 2, kRight = 3, kC = 4, kD = 5;
constexpr double kWarmup = 200.0;

std::shared_ptr<const net2::Topology> dumbbell(double bottleneck) {
  auto topo = std::make_shared<net2::Topology>();
  topo->add_link(kA, kLeft, 1e6);
  topo->add_link(kB, kLeft, 1e6);
  topo->add_link(kLeft, kRight, bottleneck);
  topo->add_link(kRight, kC, 1e6);
  topo->add_link(kRight, kD, 1e6);
  return topo;
}

using Pair = std::pair<NodeId, NodeId>;

/// Poisson calls at `arrival_rate` over 3000 time units, unit mean
/// holding time, each reserving `rate`. Each call is thinned to one of
/// `pairs` uniformly, so each pair offers an independent Poisson
/// stream at arrival_rate / pairs.size().
admission::ArrivalTrace calls(double arrival_rate, double rate,
                              const std::vector<Pair>& pairs) {
  admission::TraceSpec spec;
  spec.arrival_rate = arrival_rate;
  spec.mean_duration = 1.0;
  spec.rate = rate;
  spec.horizon = 3000.0;
  const sim::Rng root(77);
  admission::ArrivalTrace trace = admission::generate_trace(spec, root);
  sim::Rng pick = root.split(4);  // streams 0..3 are the generator's
  for (admission::FlowRequest& req : trace.requests) {
    const auto i = static_cast<std::size_t>(
        pick.uniform() * static_cast<double>(pairs.size()));
    std::tie(req.src, req.dst) = pairs[std::min(i, pairs.size() - 1)];
  }
  return trace;
}

admission::FlowReport replay(const admission::ArrivalTrace& trace,
                             admission::FlowPolicy& policy) {
  admission::EngineConfig config;
  config.warmup = kWarmup;
  return run_reservations(trace, policy, utility::Rigid(1.0), config);
}

std::shared_ptr<const AdmissionController> parameter_based(double eta) {
  return std::make_shared<ParameterBasedAdmission>(eta);
}

/// Counts each pair's scored calls and blocks around an RsvpPolicy.
class PerPairCounts final : public admission::FlowPolicy {
 public:
  struct Count {
    std::uint64_t offered = 0;
    std::uint64_t blocked = 0;
    [[nodiscard]] double blocking() const {
      return static_cast<double>(blocked) / static_cast<double>(offered);
    }
  };

  explicit PerPairCounts(RsvpPolicy& inner) : inner_(inner) {}

  Decision request(const admission::FlowRequest& req) override {
    const Decision decision = inner_.request(req);
    if (req.submit >= kWarmup) {
      Count& count = counts[{req.src, req.dst}];
      ++count.offered;
      if (!decision.admitted) ++count.blocked;
    }
    return decision;
  }
  double on_start(const admission::FlowRequest& req,
                  const Decision& decision) override {
    return inner_.on_start(req, decision);
  }
  void on_end(const admission::FlowRequest& req, const Decision& decision,
              double now) override {
    inner_.on_end(req, decision, now);
  }

  std::map<Pair, Count> counts;

 private:
  RsvpPolicy& inner_;
};

TEST(RsvpPolicy, Validation) {
  const auto topo = dumbbell(100.0);
  const auto admission = parameter_based(1.0);
  EXPECT_THROW(RsvpPolicy(nullptr, admission), std::invalid_argument);
  EXPECT_THROW(RsvpPolicy(topo, nullptr), std::invalid_argument);
  // An unroutable pair (two components: 0–1 and 2–3) and an unknown
  // node throw at their first call.
  auto split = std::make_shared<net2::Topology>();
  split->add_link(0, 1, 1.0);
  split->add_link(2, 3, 1.0);
  for (const Pair& pair : {Pair{0, 2}, Pair{0, 9}}) {
    RsvpPolicy policy(split, admission);
    EXPECT_THROW((void)replay(calls(1.0, 1.0, {pair}), policy),
                 std::invalid_argument);
  }
  // RSVP reserves at submit: no book-ahead, no cancellation.
  RsvpPolicy policy(topo, admission);
  admission::ArrivalTrace ahead = calls(1.0, 1.0, {{kA, kC}});
  ahead.requests[0].start += 1.0;
  EXPECT_THROW((void)replay(ahead, policy), std::invalid_argument);
  admission::ArrivalTrace cancels = calls(1.0, 1.0, {{kA, kC}});
  cancels.requests[0].cancel = cancels.requests[0].submit;
  EXPECT_THROW((void)replay(cancels, policy), std::invalid_argument);
}

TEST(RsvpPolicy, UtilizationValidation) {
  // A flow's usage is a fraction of its reservation in (0, 1].
  const auto topo = dumbbell(90.0);
  const auto admission = parameter_based(1.0);
  for (const double utilization : {0.0, -0.5, 1.5, std::nan("")}) {
    EXPECT_THROW(RsvpPolicy(topo, admission, utilization),
                 std::invalid_argument)
        << utilization;
  }
}

TEST(RsvpPolicy, SingleBottleneckMatchesErlangB) {
  // One pair, unit reservations, bottleneck 90, offered load 100:
  // blocking must track the Erlang-B value the single-link theory gives.
  RsvpPolicy policy(dumbbell(90.0), parameter_based(1.0));
  const auto report = replay(calls(100.0, 1.0, {{kA, kC}}), policy);
  EXPECT_NEAR(report.blocking_probability, numerics::erlang_b(100.0, 90),
              0.02);
  // Committed flows hold exactly their unit rate -> rigid utility 1:
  // mean utility = acceptance probability.
  EXPECT_NEAR(report.mean_utility, 1.0 - report.blocking_probability, 1e-12);
  EXPECT_LE(policy.peak_reserved(), 90.0 + 1e-9);
}

TEST(RsvpPolicy, TwoPairsShareTheBottleneckFairly) {
  // Symmetric pairs through the same bottleneck see (statistically)
  // the same blocking, and their joint offered load drives it.
  RsvpPolicy policy(dumbbell(90.0), parameter_based(1.0));
  PerPairCounts per_pair(policy);
  const auto report =
      replay(calls(100.0, 1.0, {{kA, kC}, {kB, kD}}), per_pair);
  const double erlang = numerics::erlang_b(100.0, 90);
  ASSERT_EQ(per_pair.counts.size(), 2u);
  const auto& first = per_pair.counts.at({kA, kC});
  const auto& second = per_pair.counts.at({kB, kD});
  EXPECT_EQ(first.offered + second.offered, report.offered);
  EXPECT_EQ(first.blocked + second.blocked, report.blocked);
  EXPECT_NEAR(first.blocking(), erlang, 0.03);
  EXPECT_NEAR(first.blocking(), second.blocking(), 0.03);
}

TEST(RsvpPolicy, OverprovisionedBottleneckNeverBlocks) {
  RsvpPolicy policy(dumbbell(10'000.0), parameter_based(1.0));
  const auto report = replay(calls(100.0, 1.0, {{kA, kC}}), policy);
  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.blocked, 0u);
  EXPECT_DOUBLE_EQ(report.mean_utility, 1.0);
}

TEST(RsvpPolicy, BiggerReservationsBlockMore) {
  // Flows reserving 2 units each on the same bottleneck double the
  // effective load per flow: blocking rises sharply.
  RsvpPolicy small_policy(dumbbell(90.0), parameter_based(1.0));
  RsvpPolicy large_policy(dumbbell(90.0), parameter_based(1.0));
  const auto small = replay(calls(45.0, 1.0, {{kA, kC}}), small_policy);
  const auto large = replay(calls(45.0, 2.0, {{kA, kC}}), large_policy);
  EXPECT_LT(small.blocking_probability, 0.01);
  EXPECT_GT(large.blocking_probability, 5.0 * small.blocking_probability);
}

TEST(RsvpPolicy, MeasurementBasedAdmissionOverbooks) {
  // Flows declare rate 1 but only use 0.4 of it. Parameter-based
  // admission fills the 90-unit bottleneck at 90 declared reservations;
  // measurement-based admission (eta=0.9) sees only the 0.4 usage and
  // books past the declared capacity — higher utilisation, less
  // blocking (the Jamin et al. trade, ref [8]).
  const auto trace = calls(120.0, 1.0, {{kA, kC}});
  RsvpPolicy parameter_policy(dumbbell(90.0), parameter_based(1.0),
                              /*utilization=*/0.4);
  RsvpPolicy measurement_policy(
      dumbbell(90.0), std::make_shared<MeasurementBasedAdmission>(0.9),
      /*utilization=*/0.4);
  const auto parameter = replay(trace, parameter_policy);
  const auto measurement = replay(trace, measurement_policy);
  EXPECT_GT(parameter.blocking_probability, 0.15);
  EXPECT_LT(measurement.blocking_probability,
            0.5 * parameter.blocking_probability);
  // Overbooking is visible: declared reservations exceed the declared-
  // capacity cap, while actual usage stays within the bound.
  EXPECT_GT(measurement_policy.peak_reserved(), 90.0);
  EXPECT_LE(measurement_policy.peak_usage(), 0.9 * 90.0 + 1.0 + 1e-9);
}

TEST(RsvpPolicy, UtilizationBoundShrinksCapacity) {
  // eta = 0.5 halves the usable bottleneck: blocking at offered 100
  // over 45 effective servers is drastic.
  RsvpPolicy policy(dumbbell(90.0), parameter_based(0.5));
  const auto report = replay(calls(100.0, 1.0, {{kA, kC}}), policy);
  EXPECT_NEAR(report.blocking_probability, numerics::erlang_b(100.0, 45),
              0.03);
  EXPECT_LE(policy.peak_reserved(), 45.0 + 1e-9);
}

}  // namespace
}  // namespace bevr::net
