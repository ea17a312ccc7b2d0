#include "bevr/admission/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>

#include <gtest/gtest.h>

#include "bevr/admission/policy.h"
#include "bevr/admission/trace.h"
#include "bevr/sim/rng.h"
#include "bevr/utility/utility.h"

namespace bevr::admission {
namespace {

PolicyConfig engine_config() {
  PolicyConfig config;
  config.capacity = 20.0;
  config.pi = std::make_shared<utility::Rigid>(1.0);
  config.tick = 0.25;
  return config;
}

ArrivalTrace busy_trace(double cancel_p = 0.0, double book_ahead = 0.0) {
  TraceSpec spec;
  spec.arrival_rate = 40.0;  // ~2× what capacity 20 can carry
  spec.mean_duration = 1.0;
  spec.horizon = 60.0;
  spec.cancel_p = cancel_p;
  spec.book_ahead = book_ahead;
  return generate_trace(spec, sim::Rng(2026));
}

TEST(AdmissionEngine, ConservationAndBlockingAccounting) {
  const auto trace = busy_trace();
  const auto policy = make_policy(PolicyKind::kOnlineKmax, engine_config());
  const auto report =
      run_admission(trace, *policy, *engine_config().pi, {});

  EXPECT_EQ(report.offered, trace.requests.size());
  EXPECT_EQ(report.admitted + report.blocked, report.offered);
  EXPECT_GT(report.blocked, 0u);  // genuinely overloaded
  EXPECT_GT(report.admitted, 0u);
  EXPECT_EQ(report.cancelled, 0u);
  EXPECT_NEAR(report.blocking_probability,
              static_cast<double>(report.blocked) /
                  static_cast<double>(report.offered),
              1e-12);
  // Rigid(1) at the fixed share 1.0: every admitted flow scores 1,
  // every blocked flow scores 0 ⇒ mean utility = admit fraction.
  EXPECT_NEAR(report.mean_utility,
              static_cast<double>(report.admitted) /
                  static_cast<double>(report.offered),
              1e-12);
  EXPECT_DOUBLE_EQ(report.mean_allocated_rate, 1.0);
  // The calendar admits at most k_max = 20 overlapping shares.
  EXPECT_LE(report.peak_active, 20u);
  EXPECT_GT(report.calendar_offers, 0u);
}

TEST(AdmissionEngine, BestEffortAdmitsEverything) {
  const auto trace = busy_trace();
  const auto policy = make_policy(PolicyKind::kBestEffort, engine_config());
  const auto report =
      run_admission(trace, *policy, *engine_config().pi, {});
  EXPECT_EQ(report.blocked, 0u);
  EXPECT_EQ(report.admitted, report.offered);
  EXPECT_DOUBLE_EQ(report.blocking_probability, 0.0);
  // ~40 concurrent flows share 20 units: most shares sit below the
  // rigid requirement, so utility collapses well under the reservation
  // policy's admit fraction — the paper's overload story.
  EXPECT_LT(report.mean_utility, 0.5);
  EXPECT_GT(report.peak_active, 20u);
  EXPECT_EQ(report.calendar_offers, 0u);  // no calendar at all
}

TEST(AdmissionEngine, CancelledFlowsAreUnscoredAndReleaseCapacity) {
  const auto trace = busy_trace(/*cancel_p=*/0.4, /*book_ahead=*/2.0);
  std::uint64_t expected_cancels = 0;
  for (const auto& req : trace.requests) {
    if (std::isfinite(req.cancel)) ++expected_cancels;
  }
  ASSERT_GT(expected_cancels, 0u);

  const auto policy =
      make_policy(PolicyKind::kAdvanceBooking, engine_config());
  const auto report =
      run_admission(trace, *policy, *engine_config().pi, {});

  EXPECT_EQ(report.admitted + report.blocked, report.offered);
  // Only *admitted* bookings can be retracted, so the cancel count is
  // bounded by the trace's cancellable requests.
  EXPECT_GT(report.cancelled, 0u);
  EXPECT_LE(report.cancelled, expected_cancels);
  EXPECT_LE(report.cancelled, report.admitted);
  // Blocking is normalised to decided requests.
  EXPECT_NEAR(report.blocking_probability,
              static_cast<double>(report.blocked) /
                  static_cast<double>(report.offered - report.cancelled),
              1e-12);
}

TEST(AdmissionEngine, WarmupRequestsShapeLoadButGoUnscored) {
  const auto trace = busy_trace();
  EngineConfig engine;
  engine.warmup = 30.0;
  std::uint64_t scored_requests = 0;
  for (const auto& req : trace.requests) {
    if (req.submit >= engine.warmup) ++scored_requests;
  }

  const auto policy = make_policy(PolicyKind::kOnlineKmax, engine_config());
  const auto report =
      run_admission(trace, *policy, *engine_config().pi, engine);
  EXPECT_EQ(report.offered, scored_requests);
  EXPECT_LT(report.offered, trace.requests.size());
  // Warmup flows still hit the calendar: its lifetime counters cover
  // the whole trace.
  EXPECT_EQ(report.calendar_offers, trace.requests.size());
  // The system starts full, so scored blocking is immediate — no
  // fill-up transient inflating the utilities.
  EXPECT_GT(report.blocked, 0u);
}

TEST(AdmissionEngine, DeterministicAcrossRuns) {
  const auto trace = busy_trace(/*cancel_p=*/0.2, /*book_ahead=*/1.0);
  const auto run_once = [&trace] {
    const auto policy =
        make_policy(PolicyKind::kAdvanceBooking, engine_config());
    return run_admission(trace, *policy, *engine_config().pi, {});
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_DOUBLE_EQ(a.mean_utility, b.mean_utility);
  EXPECT_DOUBLE_EQ(a.mean_allocated_rate, b.mean_allocated_rate);
}

TEST(AdmissionEngine, SamePolicyKindIsIndependentAcrossRuns) {
  // run_admission must not leak state between runs through the policy:
  // a fresh policy on the same trace reproduces the report even after
  // another policy instance has processed a different trace.
  const auto trace = busy_trace();
  const auto config = engine_config();
  const auto first = [&] {
    const auto policy = make_policy(PolicyKind::kOnlineKmax, config);
    return run_admission(trace, *policy, *config.pi, {});
  }();
  (void)[&] {
    const auto policy = make_policy(PolicyKind::kOnlineKmax, config);
    return run_admission(busy_trace(0.3, 1.0), *policy, *config.pi, {});
  }();
  const auto again = [&] {
    const auto policy = make_policy(PolicyKind::kOnlineKmax, config);
    return run_admission(trace, *policy, *config.pi, {});
  }();
  EXPECT_EQ(first.admitted, again.admitted);
  EXPECT_DOUBLE_EQ(first.mean_utility, again.mean_utility);
}

TEST(AdmissionEngine, RejectsMalformedInputs) {
  const auto policy = make_policy(PolicyKind::kBestEffort, engine_config());
  const utility::Rigid pi(1.0);

  EngineConfig engine;
  engine.warmup = -1.0;
  ArrivalTrace empty;
  EXPECT_THROW((void)run_admission(empty, *policy, pi, engine),
               std::invalid_argument);

  ArrivalTrace bad;
  FlowRequest req;
  req.submit = 1.0;
  req.start = 0.5;  // starts before it was submitted
  bad.requests.push_back(req);
  EXPECT_THROW((void)run_admission(bad, *policy, pi, {}),
               std::invalid_argument);

  bad.requests[0] = FlowRequest{};
  bad.requests[0].duration = 0.0;
  EXPECT_THROW((void)run_admission(bad, *policy, pi, {}),
               std::invalid_argument);
}

TEST(AdmissionEngine, EmptyTraceYieldsZeroReport) {
  const auto policy = make_policy(PolicyKind::kBestEffort, engine_config());
  const utility::Rigid pi(1.0);
  const auto report = run_admission(ArrivalTrace{}, *policy, pi, {});
  EXPECT_EQ(report.offered, 0u);
  EXPECT_DOUBLE_EQ(report.mean_utility, 0.0);
  EXPECT_DOUBLE_EQ(report.blocking_probability, 0.0);
  EXPECT_EQ(report.peak_active, 0u);
}


FlowRequest flow(double submit, double duration) {
  FlowRequest req;
  req.submit = submit;
  req.start = submit;
  req.duration = duration;
  return req;
}

TEST(AdmissionEngine, SubmitAtADeparturesInstantIsDecidedFirst) {
  // One share of capacity 1 and a 2-unit calendar tick: flow A holds
  // tick [0, 2) until its departure at t = 1 releases it. A submit at
  // exactly t = 1 is decided before that departure, so it is blocked;
  // half a unit later the departure has run and the same flow fits.
  PolicyConfig config = engine_config();
  config.capacity = 1.0;
  config.tick = 2.0;
  const auto replay = [&config](double second_submit) {
    ArrivalTrace trace;
    trace.requests = {flow(0.0, 1.0), flow(second_submit, 1.0)};
    const auto policy = make_policy(PolicyKind::kOnlineKmax, config);
    return run_admission(trace, *policy, *config.pi, {});
  };
  const auto tie = replay(1.0);
  EXPECT_EQ(tie.admitted, 1u);
  EXPECT_EQ(tie.blocked, 1u);
  const auto after = replay(1.5);
  EXPECT_EQ(after.admitted, 2u);
  EXPECT_EQ(after.blocked, 0u);
}

TEST(AdmissionEngine, ShuffledTraceReplaysLikeTheSortedOne) {
  // Replay order is stable submit order, whatever order the trace
  // vector holds.
  const auto sorted = busy_trace(/*cancel_p=*/0.2, /*book_ahead=*/1.0);
  ArrivalTrace shuffled = sorted;
  std::shuffle(shuffled.requests.begin(), shuffled.requests.end(),
               std::mt19937(7));
  ASSERT_FALSE(std::is_sorted(
      shuffled.requests.begin(), shuffled.requests.end(),
      [](const FlowRequest& a, const FlowRequest& b) {
        return a.submit < b.submit;
      }));
  const auto run = [](const ArrivalTrace& trace) {
    const auto policy =
        make_policy(PolicyKind::kAdvanceBooking, engine_config());
    return run_admission(trace, *policy, *engine_config().pi, {});
  };
  const auto a = run(sorted);
  const auto b = run(shuffled);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.counteroffers_accepted, b.counteroffers_accepted);
  EXPECT_EQ(a.calendar_offers, b.calendar_offers);
  EXPECT_EQ(a.counteroffers, b.counteroffers);
  EXPECT_EQ(a.expirations, b.expirations);
  EXPECT_EQ(a.mean_utility, b.mean_utility);
  EXPECT_EQ(a.blocking_probability, b.blocking_probability);
  EXPECT_EQ(a.mean_allocated_rate, b.mean_allocated_rate);
  EXPECT_EQ(a.peak_active, b.peak_active);
}

TEST(AdmissionEngine, RejectsNonFiniteFieldsBeforeRunningAnything) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto config = engine_config();
  const auto rejects = [&config](FlowRequest bad) {
    // A valid first request, then the bad one: nothing may run.
    ArrivalTrace trace;
    trace.requests = {flow(0.0, 1.0), bad};
    const auto policy = make_policy(PolicyKind::kOnlineKmax, config);
    EXPECT_THROW((void)run_admission(trace, *policy, *config.pi, {}),
                 std::invalid_argument);
    EXPECT_EQ(policy->calendar()->offers(), 0u);
  };
  FlowRequest req = flow(1.0, 1.0);
  req.submit = nan;
  rejects(req);
  req.submit = inf;
  rejects(req);
  req = flow(1.0, 1.0);
  req.start = nan;
  rejects(req);
  req.start = inf;
  rejects(req);
  req = flow(1.0, 1.0);
  req.duration = nan;
  rejects(req);
  req.duration = inf;
  rejects(req);
  req = flow(1.0, 1.0);
  req.rate = nan;
  rejects(req);
  req.rate = inf;
  rejects(req);
  req = flow(1.0, 1.0);
  req.cancel = nan;
  rejects(req);

  // cancel = +inf is the default: "never cancels".
  ArrivalTrace trace;
  trace.requests = {flow(0.0, 1.0), flow(1.0, 1.0)};
  ASSERT_EQ(trace.requests[1].cancel, inf);
  const auto policy = make_policy(PolicyKind::kOnlineKmax, config);
  const auto report = run_admission(trace, *policy, *config.pi, {});
  EXPECT_EQ(report.offered, 2u);
}

}  // namespace
}  // namespace bevr::admission
