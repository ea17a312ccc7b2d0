#include "bevr/admission/policy.h"

#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "bevr/admission/trace.h"
#include "bevr/sim/rng.h"
#include "bevr/utility/utility.h"

namespace bevr::admission {
namespace {

FlowRequest request_at(double start, double duration = 5.0,
                       double rate = 1.0) {
  FlowRequest req;
  req.submit = start;
  req.start = start;
  req.duration = duration;
  req.rate = rate;
  return req;
}

PolicyConfig small_config() {
  PolicyConfig config;
  config.capacity = 10.0;
  config.pi = std::make_shared<utility::Rigid>(1.0);
  config.tick = 0.5;
  return config;
}

TEST(BestEffortPolicy, AdmitsEverythingAndSplitsEvenly) {
  const auto policy = make_policy(PolicyKind::kBestEffort, small_config());
  std::vector<AdmissionPolicy::Decision> decisions;
  for (int i = 0; i < 40; ++i) {
    const auto d = policy->request(request_at(0.0));
    EXPECT_TRUE(d.admitted);
    EXPECT_FALSE(d.rerouted);
    EXPECT_EQ(d.held, 0u);
    decisions.push_back(d);
  }
  // Shares are capacity / active-count as flows pile on.
  const auto req = request_at(0.0);
  EXPECT_DOUBLE_EQ(policy->on_start(req, decisions[0]), 10.0);
  EXPECT_DOUBLE_EQ(policy->on_start(req, decisions[1]), 5.0);
  EXPECT_DOUBLE_EQ(policy->on_start(req, decisions[2]), 10.0 / 3.0);
  // A departure makes room again.
  policy->on_end(req, decisions[0], 5.0);
  EXPECT_DOUBLE_EQ(policy->on_start(req, decisions[3]), 10.0 / 3.0);
  EXPECT_EQ(policy->calendar(), nullptr);
}

TEST(BestEffortPolicy, CancelOfUnstartedFlowLeavesSharesAlone) {
  // A pre-start retraction must not decrement the active count: the
  // flow never held a share. (A direct on_end here would skew every
  // later share upward — the bias the engine's on_cancel path exists
  // to prevent.)
  const auto policy = make_policy(PolicyKind::kBestEffort, small_config());
  const auto req = request_at(0.0);
  const auto a = policy->request(req);
  const auto b = policy->request(req);
  EXPECT_DOUBLE_EQ(policy->on_start(req, a), 10.0);  // active = 1
  policy->on_cancel(req, b, 0.5);                    // b never started
  const auto c = policy->request(req);
  EXPECT_DOUBLE_EQ(policy->on_start(req, c), 5.0);  // active = 2, not 1
}

TEST(OnlineKmaxPolicy, AdmitsExactlyKmaxConcurrentFlows) {
  // Rigid(1) on capacity 10 ⇒ k_max = 10, share = 1: the online policy
  // reproduces the reservation architecture's admission limit.
  const auto policy = make_policy(PolicyKind::kOnlineKmax, small_config());
  std::vector<AdmissionPolicy::Decision> admitted;
  for (int i = 0; i < 10; ++i) {
    const auto d = policy->request(request_at(0.0));
    ASSERT_TRUE(d.admitted) << "i=" << i;
    EXPECT_DOUBLE_EQ(d.rate, 1.0);
    EXPECT_GT(d.held, 0u);
    admitted.push_back(d);
  }
  const auto full = policy->request(request_at(0.0));
  EXPECT_FALSE(full.admitted);
  // The granted rate is the fixed share, whatever was asked.
  const auto req = request_at(0.0);
  EXPECT_DOUBLE_EQ(policy->on_start(req, admitted[0]), 1.0);
  // A departure releases its window for newcomers.
  policy->on_end(req, admitted[0], 0.0);
  EXPECT_TRUE(policy->request(request_at(0.0)).admitted);
  ASSERT_NE(policy->calendar(), nullptr);
  EXPECT_GT(policy->calendar()->offers(), 0u);
}

TEST(OnlineKmaxPolicy, NonOverlappingWindowsDoNotCompete) {
  const auto policy = make_policy(PolicyKind::kOnlineKmax, small_config());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(policy->request(request_at(0.0, 5.0)).admitted);
  }
  EXPECT_FALSE(policy->request(request_at(0.0, 5.0)).admitted);
  EXPECT_TRUE(policy->request(request_at(5.0, 5.0)).admitted);
}

TEST(OnlineKmaxPolicy, ElasticUtilityThrows) {
  auto config = small_config();
  config.pi = std::make_shared<utility::Elastic>();
  EXPECT_THROW((void)make_policy(PolicyKind::kOnlineKmax, config),
               std::invalid_argument);
  config.pi = nullptr;
  EXPECT_THROW((void)make_policy(PolicyKind::kOnlineKmax, config),
               std::invalid_argument);
}

TEST(AdvanceBookingPolicy, RigidConfigurationBlocksWhenFull) {
  // min_rate_fraction = 1 and no shifting: a plain yes/no reservation.
  const auto policy =
      make_policy(PolicyKind::kAdvanceBooking, small_config());
  ASSERT_TRUE(policy->request(request_at(0.0, 4.0, 6.0)).admitted);
  const auto d = policy->request(request_at(0.0, 4.0, 6.0));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.held, 0u);
}

TEST(AdvanceBookingPolicy, AcceptsCounteroffersAboveTheFloor) {
  auto config = small_config();
  config.min_rate_fraction = 0.5;
  const auto policy = make_policy(PolicyKind::kAdvanceBooking, config);
  ASSERT_TRUE(policy->request(request_at(0.0, 4.0, 6.0)).admitted);
  // 4.0 of the 6.0 ask remains: 4/6 ≥ 0.5 ⇒ take the reduced rate.
  const auto d = policy->request(request_at(0.0, 4.0, 6.0));
  EXPECT_TRUE(d.admitted);
  EXPECT_TRUE(d.rerouted);
  EXPECT_DOUBLE_EQ(d.rate, 4.0);
  EXPECT_DOUBLE_EQ(d.start, 0.0);
  const auto req = request_at(0.0, 4.0, 6.0);
  EXPECT_DOUBLE_EQ(policy->on_start(req, d), 4.0);
}

TEST(AdvanceBookingPolicy, RejectsCounteroffersBelowTheFloor) {
  auto config = small_config();
  config.min_rate_fraction = 0.9;  // 4/6 < 0.9 ⇒ refuse the reduction
  const auto policy = make_policy(PolicyKind::kAdvanceBooking, config);
  ASSERT_TRUE(policy->request(request_at(0.0, 4.0, 6.0)).admitted);
  EXPECT_FALSE(policy->request(request_at(0.0, 4.0, 6.0)).admitted);
}

TEST(AdvanceBookingPolicy, ShiftsTheStartWhenTheRateIsNotMalleable) {
  auto config = small_config();
  config.min_rate_fraction = 1.0;  // never accept a reduced rate
  config.max_start_shift = 2.0;
  config.shift_step = 1.0;
  const auto policy = make_policy(PolicyKind::kAdvanceBooking, config);
  ASSERT_TRUE(policy->request(request_at(0.0, 2.0, 10.0)).admitted);
  // Full at t=0 and t=1 (window overlap); free from t=2.
  const auto d = policy->request(request_at(0.0, 2.0, 10.0));
  EXPECT_TRUE(d.admitted);
  EXPECT_TRUE(d.rerouted);
  EXPECT_DOUBLE_EQ(d.start, 2.0);
  EXPECT_DOUBLE_EQ(d.rate, 10.0);
}

TEST(AdvanceBookingPolicy, ShiftWindowExhaustedBlocks) {
  auto config = small_config();
  config.min_rate_fraction = 1.0;
  config.max_start_shift = 1.0;  // not enough to clear a 2-unit window
  config.shift_step = 0.5;
  const auto policy = make_policy(PolicyKind::kAdvanceBooking, config);
  ASSERT_TRUE(policy->request(request_at(0.0, 2.0, 10.0)).admitted);
  EXPECT_FALSE(policy->request(request_at(0.0, 2.0, 10.0)).admitted);
}

TEST(AdvanceBookingPolicy, CancelReleasesTheBooking) {
  const auto policy =
      make_policy(PolicyKind::kAdvanceBooking, small_config());
  const auto req = request_at(5.0, 4.0, 10.0);
  const auto d = policy->request(req);
  ASSERT_TRUE(d.admitted);
  EXPECT_FALSE(policy->request(request_at(5.0, 4.0, 10.0)).admitted);
  // Pre-start retraction at t=1 frees the whole window.
  policy->on_cancel(req, d, 1.0);
  EXPECT_TRUE(policy->request(request_at(5.0, 4.0, 10.0)).admitted);
}

TEST(AdvanceBookingPolicy, InvalidKnobsThrow) {
  auto config = small_config();
  config.min_rate_fraction = 0.0;
  EXPECT_THROW((void)make_policy(PolicyKind::kAdvanceBooking, config),
               std::invalid_argument);
  config = small_config();
  config.min_rate_fraction = 1.5;
  EXPECT_THROW((void)make_policy(PolicyKind::kAdvanceBooking, config),
               std::invalid_argument);
  config = small_config();
  config.max_start_shift = -1.0;
  EXPECT_THROW((void)make_policy(PolicyKind::kAdvanceBooking, config),
               std::invalid_argument);
  config = small_config();
  config.max_start_shift = 2.0;
  config.shift_step = 0.0;
  EXPECT_THROW((void)make_policy(PolicyKind::kAdvanceBooking, config),
               std::invalid_argument);
}

TEST(PolicyKindNames, RoundTrip) {
  EXPECT_EQ(to_string(PolicyKind::kBestEffort), "best_effort");
  EXPECT_EQ(to_string(PolicyKind::kOnlineKmax), "online_kmax");
  EXPECT_EQ(to_string(PolicyKind::kAdvanceBooking), "advance_booking");
}

}  // namespace
}  // namespace bevr::admission
